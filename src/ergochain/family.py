"""Discrete bivariate staircase families and their birth-death marginals.

A family is a probability mass function on pairs of positive integers
supported on the staircase (x, x) and (x+1, x),

    pi(x, y) = a_x  if x = y,
    pi(x, y) = b_y  if x = y + 1,
    pi(x, y) = 0    otherwise,

where {a_i} and {b_i} are strictly positive and sum (jointly) to one and
b_0 = 0 by convention. The marginals are

    pi_X(x) = a_x + b_{x-1},        pi_Y(y) = a_y + b_y,

and both full conditionals are two-point distributions:

    X | Y = y  is  y   w.p. a_y / (a_y + b_y),   y + 1 w.p. b_y / (a_y + b_y)
    Y | X = x  is  x   w.p. a_x / (a_x + b_{x-1}), x - 1 w.p. b_{x-1} / (a_x + b_{x-1})

The x-marginal of the deterministic-scan Gibbs chain is a birth-death
chain with up and down probabilities

    p_x = a_x b_x / ((a_x + b_{x-1}) (a_x + b_x))
    q_x = a_{x-1} b_{x-1} / ((a_x + b_{x-1}) (a_{x-1} + b_{x-1}))

build_family stores these conditional laws once: the stays as stay_x and
stay_y, the moves as beta and delta, p and q, and log_t = log t_y with
t_y = a_y b_y / (a_y + b_y) = pi_X(y) p_y, the conductance between
levels y and y + 1; kernels, drift and subgeo read them from there.

Finite families are produced by truncating a sequence specification
(spec.SequenceSpec) at a level N: indices above N are dropped, b_N is
forced to zero so the support is exactly {1..N}^2, and the retained mass
is renormalized.
All sequence evaluation is carried out in log space so that thin tails
(for instance e^{-2i} at i in the hundreds) neither underflow nor lose
the ratios that every derived quantity is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTruncation, NonPositiveSequence, OutOfSupport
from .spec import _LIMITS, SequenceSpec, check_tail_n


# -- truncated family ----------------------------------------------------


@dataclass(frozen=True)
class BivariateFamily:
    """A staircase family truncated to support {1..N}^2 and renormalized.

    Arrays are indexed by 0..N-1 for levels 1..N. log_b[N-1] is -inf
    because b_N is forced to zero by the truncation. retained_mass is the
    spec's raw mass kept by the truncation, before renormalization.
    stay_x[x-1] = P(Y = x | X = x), stay_y[y-1] = P(X = y | Y = y) and
    log_t[y-1] = log a_y + log b_y - log pi_Y(y) (-inf at y = N).
    """

    spec: SequenceSpec
    N: int
    log_a: np.ndarray = field(repr=False)
    log_b: np.ndarray = field(repr=False)
    retained_mass: float = 1.0

    # derived arrays, filled in build_family
    log_pix: np.ndarray = field(default=None, repr=False)
    log_piy: np.ndarray = field(default=None, repr=False)
    beta: np.ndarray = field(default=None, repr=False)
    delta: np.ndarray = field(default=None, repr=False)
    p: np.ndarray = field(default=None, repr=False)
    q: np.ndarray = field(default=None, repr=False)
    stay_x: np.ndarray = field(default=None, repr=False)
    stay_y: np.ndarray = field(default=None, repr=False)
    log_t: np.ndarray = field(default=None, repr=False)

    @property
    def a(self) -> np.ndarray:
        return np.exp(self.log_a)

    @property
    def b(self) -> np.ndarray:
        return np.exp(self.log_b)

    @property
    def pi_x(self) -> np.ndarray:
        return np.exp(self.log_pix)

    @property
    def pi_y(self) -> np.ndarray:
        return np.exp(self.log_piy)

    def joint(self, x: int, y: int) -> float:
        """pi(x, y); zero off the staircase, OutOfSupport outside the box."""
        if not (1 <= x <= self.N and 1 <= y <= self.N):
            raise OutOfSupport(f"state ({x}, {y}) outside {{1..{self.N}}}^2")
        if x == y:
            return float(np.exp(self.log_a[x - 1]))
        if x == y + 1:
            return float(np.exp(self.log_b[y - 1]))
        return 0.0


def build_family(spec: SequenceSpec, N: int) -> BivariateFamily:
    """Truncate spec at level N, force b_N = 0, and renormalize.

    Raises NonPositiveSequence if the spec produces a nonfinite log value
    and DegenerateTruncation if no mass is retained.
    """
    if N < 2:
        raise DegenerateTruncation("need N >= 2 for a nondegenerate truncation")
    idx = np.arange(1, N + 1)
    la = np.asarray(spec.log_a(idx), dtype=float).copy()
    lb = np.asarray(spec.log_b(idx), dtype=float).copy()
    if not (np.isfinite(la).all() and np.isfinite(lb).all()):
        raise NonPositiveSequence("spec generated a nonpositive or nonfinite value")
    lb[N - 1] = -np.inf
    log_mass = _renormalize(la, lb)

    log_pix = np.logaddexp(la, _shift_down(lb))
    log_piy = np.logaddexp(la, lb)
    beta = np.exp(lb - log_piy)                     # P(X = y+1 | Y = y)
    delta = np.exp(_shift_down(lb) - log_pix)       # P(Y = x-1 | X = x)
    stay_x = np.exp(la - log_pix)                   # P(Y = x | X = x)
    stay_y = np.exp(la - log_piy)                   # P(X = y | Y = y)
    p = beta * stay_x
    q = delta * np.concatenate(([0.0], stay_y[:-1]))
    with np.errstate(over="ignore"):    # log a_y + log b_y below -1.8e308
        log_t = la + lb - log_piy
    if not np.isfinite(log_t[:-1]).all():
        raise NonPositiveSequence("spec generated a nonpositive or nonfinite value")

    return BivariateFamily(
        spec=spec, N=int(N), log_a=la, log_b=lb,
        retained_mass=_exp_sat(float(log_mass)),
        log_pix=log_pix, log_piy=log_piy,
        beta=beta, delta=delta, p=p, q=q, stay_x=stay_x, stay_y=stay_y,
        log_t=log_t,
    )


def _shift_down(logs: np.ndarray) -> np.ndarray:
    """Prepend log 0 and drop the last entry: value at index i-1."""
    return np.concatenate(([-np.inf], logs[:-1]))


def _renormalize(la: np.ndarray, lb: np.ndarray):
    """Shift la and lb in place to log probabilities; return the log mass.
    The top weight goes first, so tiny weights lose no |log mass| x eps;
    the rest is one sum of exps, each at most 1 and the top exactly 1, so
    a term that underflows is below 1e-308 of the sum."""
    top = max(la.max(), lb.max())
    la -= top
    lb -= top
    log_rest = math.log(float(np.exp(la).sum() + np.exp(lb).sum()))
    log_mass = top + log_rest
    if not np.isfinite(log_mass):
        raise DegenerateTruncation("retained mass is zero or not finite")
    la -= log_rest
    lb -= log_rest
    return log_mass


# -- tail ratio estimation ------------------------------------------------


@dataclass(frozen=True)
class TailEstimates:
    """Window estimates of the limiting ratios that decide ergodicity.

    A            limsup a_i / a_{i-1}
    m, M         liminf and limsup of a_i / b_i
    a_over_bprev limsup a_i / b_{i-1}
    b_over_a     limsup b_i / a_i
    r_hat        max t_i / t_{i-1} = p_i / q_i, t_i = a_i b_i / (a_i + b_i)
    q_hat        min q_i, the marginal's down-probability

    converged[k] is True when the window estimate of k moved by at most
    1e-6 relatively between the two halves of the window, or when the
    value was declared on the spec (declared[k] True in that case); r_hat
    and q_hat, the drift search's surrogates, are in neither dict.
    Values may be infinite when a ratio diverges.
    """

    A: float
    m: float
    M: float
    a_over_bprev: float
    b_over_a: float
    r_hat: float
    q_hat: float
    converged: dict
    declared: dict


def _exp_sat(log_v: float) -> float:
    """exp that saturates to inf instead of raising on overflow."""
    try:
        return math.exp(log_v)
    except OverflowError:
        return math.inf


def tail_limits(spec: SequenceSpec, N: int) -> TailEstimates:
    """Estimate limiting ratios from the last 50 of 4 max(N, 50) indices, N >= 10.

    The horizon is at least 200, so a tail that settles slowly (power-law
    r_hat is 0.9506 on the last 10 of 40 indices) is read beyond the
    transient at every N.

    Declared limits on the spec take precedence field by field (r_hat and
    q_hat are never declared). The limsup (liminf) surrogates are the
    window max (min); the convergence flag compares the two window halves
    in log space at 1e-6. log t = log a - log(1 + a/b) has no overflowing
    sum and stays finite where p and q underflow.
    """
    check_tail_n(N)
    window, horizon = 50, 4 * max(N, 50)
    j = np.arange(horizon - window, horizon + 1)
    la_j, lb_j = spec.log_a(j), spec.log_b(j)
    la, lb, lap, lbp = la_j[1:], lb_j[1:], la_j[:-1], lb_j[:-1]
    log_t = la_j - np.logaddexp(0.0, la_j - lb_j)

    ratios = {"A": (la - lap, np.max), "m": (la - lb, np.min),
              "M": (la - lb, np.max), "a_over_bprev": (la - lbp, np.max),
              "b_over_a": (lb - la, np.max)}
    vals, conv = {}, {}
    for k, (logs, op) in ratios.items():
        half = len(logs) // 2
        vals[k] = _exp_sat(float(op(logs)))
        conv[k] = bool(abs(op(logs[half:]) - op(logs[:half])) <= 1e-6)
    decl = {k: False for k in vals}

    for name, keys in _LIMITS.items():
        v = getattr(spec.declared_limits, name, None)    # None when undeclared
        if v is not None:
            for k in keys:
                vals[k], conv[k], decl[k] = v, True, True

    return TailEstimates(
        **vals, converged=conv, declared=decl,
        r_hat=_exp_sat(float(np.max(np.diff(log_t)))),
        q_hat=math.exp(float(np.min(log_t[:-1] - np.logaddexp(la, lbp)))),
    )


__all__ = ["TailEstimates", "BivariateFamily", "build_family", "tail_limits"]

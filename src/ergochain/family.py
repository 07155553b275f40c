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

A family stores log a and log b alone and derives everything else from
them on first read, once: log pi_X and log pi_Y; log_t = log t_y with
t_y = a_y b_y / (a_y + b_y) = pi_X(y) p_y, the conductance between
levels y and y + 1; the stays stay_x and stay_y, the moves beta and
delta, and p and q. Each conditional pair comes from one exp: the smaller
member is exp(min(log move, log stay) - log pi), the larger is 1 minus
it, so the pair sums to 1 to within an ulp. Kernels, drift and subgeo
read these arrays from the family, and each pays only for what it reads.

Finite families are produced by truncating a sequence specification
(spec.SequenceSpec) at a level N >= 2 (_check_N, which drift.certify
shares): indices above N are dropped, b_N is forced to zero so the
support is exactly {1..N}^2, and the retained mass is renormalized. The
untruncated tail's limiting ratios do not depend on N; spec.tail_limits
gives them in closed form.
All sequence evaluation is carried out in log space so that thin tails
(for instance e^{-2i} at i in the hundreds) neither underflow nor lose
the ratios that every derived quantity is built from.

The bivariate chains move on the staircase states in the order (1,1),
(2,1), (2,2), (3,2), ..., (N,N). This module owns that order:
staircase_xy maps position m to its state and check_state is the
support, so kernels, drift and the samplers share it, and kernels'
index_of maps a state back.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DegenerateTruncation, NonPositiveSequence, OutOfSupport,
                     StartNotInSupport)
from .spec import MARGINAL_X, SequenceSpec


# -- truncated family ----------------------------------------------------


@dataclass(frozen=True)
class BivariateFamily:
    """A staircase family truncated to support {1..N}^2 and renormalized.

    log_a and log_b are the only arrays stored; every other one is derived
    from them on first read and cached. Arrays are indexed by 0..N-1 for
    levels 1..N. log_b[N-1] is -inf because b_N is forced to zero by the
    truncation. retained_mass is the spec's raw mass kept by the
    truncation, before renormalization. beta[y-1] = P(X = y+1 | Y = y),
    stay_y[y-1] = P(X = y | Y = y), delta[x-1] = P(Y = x-1 | X = x),
    stay_x[x-1] = P(Y = x | X = x) and log_t[y-1] = log a_y + log b_y -
    log pi_Y(y) (-inf at y = N).
    """

    spec: SequenceSpec
    N: int
    log_a: np.ndarray = field(repr=False)
    log_b: np.ndarray = field(repr=False)
    retained_mass: float = 1.0

    @cached_property
    def log_pix(self) -> np.ndarray:
        return np.logaddexp(self.log_a, _shift_down(self.log_b))

    @cached_property
    def log_piy(self) -> np.ndarray:
        return np.logaddexp(self.log_a, self.log_b)

    @cached_property
    def log_t(self) -> np.ndarray:
        return self.log_a + self.log_b - self.log_piy

    @cached_property
    def _law_y(self) -> tuple:
        return _two_point(self.log_b, self.log_a, self.log_piy)

    @cached_property
    def _law_x(self) -> tuple:
        return _two_point(_shift_down(self.log_b), self.log_a, self.log_pix)

    @cached_property
    def p(self) -> np.ndarray:
        return self.beta * self.stay_x

    @cached_property
    def q(self) -> np.ndarray:
        return self.delta * _shift_down(self.stay_y, 0.0)

    beta = cached_property(lambda self: self._law_y[0])
    stay_y = cached_property(lambda self: self._law_y[1])
    delta = cached_property(lambda self: self._law_x[0])
    stay_x = cached_property(lambda self: self._law_x[1])
    a = cached_property(lambda self: np.exp(self.log_a))
    b = cached_property(lambda self: np.exp(self.log_b))
    pi_x = cached_property(lambda self: np.exp(self.log_pix))
    pi_y = cached_property(lambda self: np.exp(self.log_piy))

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
    or a log a_y + log b_y below -1.8e308 (y < N), and
    DegenerateTruncation if N < 2 or no mass is retained.
    """
    N = _check_N(N)
    idx = np.arange(1, N + 1)
    la = np.asarray(spec.log_a(idx), dtype=float).copy()
    lb = np.asarray(spec.log_b(idx), dtype=float).copy()
    if not (np.isfinite(la).all() and np.isfinite(lb).all()):
        raise NonPositiveSequence("spec generated a nonpositive or nonfinite value")
    lb[N - 1] = -np.inf
    log_mass = _renormalize(la, lb)
    with np.errstate(over="ignore"):
        if not np.isfinite(la[:-1] + lb[:-1]).all():    # log t_y, y < N
            raise NonPositiveSequence("spec generated a nonpositive or nonfinite value")
    return BivariateFamily(spec=spec, N=N, log_a=la, log_b=lb,
                           retained_mass=_exp_sat(float(log_mass)))


def _check_N(N) -> int:
    """N as an int: DegenerateTruncation below 2, and TypeError for an N
    that is not an integer, so 2.7 is refused rather than truncated."""
    if N < 2:
        raise DegenerateTruncation("need N >= 2 for a nondegenerate truncation")
    return operator.index(N)


# -- the staircase order ---------------------------------------------------


def staircase_xy(N: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the 2N-1 staircase states: m -> ((m+1)//2 + 1, m//2 + 1)."""
    m = np.arange(2 * N - 1)
    return (m + 1) // 2 + 1, m // 2 + 1


def check_state(kind: str, N: int, state):
    """state as x or (x, y) of ints when it lies in the chain's support.

    Only integers are accepted, so 2.7 is refused rather than truncated;
    anything else raises StartNotInSupport.
    """
    try:
        if kind == MARGINAL_X:
            x = operator.index(state)
            if 1 <= x <= N:
                return x
        else:
            x, y = map(operator.index, state)
            if 1 <= y <= N and (x == y or (x == y + 1 and y < N)):
                return x, y
    except (TypeError, ValueError):
        pass
    raise StartNotInSupport(f"state {state!r} not in chain support")


def _two_point(log_move: np.ndarray, log_stay: np.ndarray, log_pi: np.ndarray) -> tuple:
    """(move, stay) of the two-point laws with weights e^log_move and
    e^log_stay over e^log_pi: the smaller member from one exp, the larger
    as 1 minus it."""
    small = np.exp(np.minimum(log_move, log_stay) - log_pi)
    large = 1.0 - small
    move_smaller = log_move < log_stay
    return np.where(move_smaller, small, large), np.where(move_smaller, large, small)


def _shift_down(v: np.ndarray, first: float = -np.inf) -> np.ndarray:
    """Prepend first (log 0 by default) and drop the last entry: value at
    index i-1."""
    return np.concatenate(([first], v[:-1]))


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


def _exp_sat(log_v: float) -> float:
    """exp that saturates to inf instead of raising on overflow."""
    try:
        return math.exp(log_v)
    except OverflowError:
        return math.inf


__all__ = ["BivariateFamily", "build_family", "staircase_xy"]

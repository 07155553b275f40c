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

Finite families are produced by truncating a sequence specification at a
level N: indices above N are dropped, b_N is forced to zero so the
support is exactly {1..N}^2, and the retained mass is renormalized.
All sequence evaluation is carried out in log space so that thin tails
(for instance e^{-2i} at i in the hundreds) neither underflow nor lose
the ratios that every derived quantity is built from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTruncation,
    IndexOutOfRange,
    NonPositiveSequence,
    OutOfSupport,
    UnknownFormat,
)

# each sequence kind's JSON params and the SequenceSpec field holding each:
# the arrays a and b in a_table and b_table, every number under its own name
_KIND_PARAMS = {
    "power_law": {"d": "d", "c1": "c1", "c2": "c2"},
    **dict.fromkeys(("geometric", "mixed_geometric", "alternating"), {"c": "c"}),
    "table": {"a": "a_table", "b": "b_table", "tail_ratio": "tail_ratio"},
}
KINDS = tuple(_KIND_PARAMS)

# each declared limit and the tail_limits estimates it replaces
_LIMITS = {"A": ("A",), "lim_ab": ("m", "M"),
           "lim_a_over_bprev": ("a_over_bprev",), "lim_b_over_a": ("b_over_a",)}


def _encode_extended(v):
    """Encode an extended real for JSON (inf and nan as strings)."""
    if v is None:
        return None
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return v


_EXTENDED = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _real(v, name: str) -> float:
    """A JSON number as a float; UnknownFormat for bools, strings and the rest."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise UnknownFormat(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise UnknownFormat(f"{name} = {v!r} is out of range") from None


def _decode_extended(v, name: str = "value"):
    """Inverse of _encode_extended: None, a number, or "inf"/"-inf"/"nan"."""
    if v is None:
        return None
    if isinstance(v, str) and v in _EXTENDED:
        return _EXTENDED[v]
    return _real(v, name)


@dataclass(frozen=True)
class TailLimits:
    """Declared limiting ratios of a sequence specification.

    Each field is a nonnegative extended real or None when the limit is
    unknown or does not exist; anything else, NaN and negative values
    included, raises UnknownFormat. lim_ab is the common value of
    liminf a_i/b_i and limsup a_i/b_i when that limit exists.
    """

    A: float | None = None
    lim_ab: float | None = None
    lim_a_over_bprev: float | None = None
    lim_b_over_a: float | None = None

    def __post_init__(self):
        for k in _LIMITS:
            v = getattr(self, k)
            if not (v is None or (isinstance(v, (int, float)) and 0 <= v <= math.inf)):
                raise UnknownFormat(f"declared limit {k} = {v!r} must be null "
                                    "or lie in [0, inf]")

    def to_json_dict(self) -> dict:
        return {k: _encode_extended(getattr(self, k)) for k in _LIMITS}

    @staticmethod
    def from_json_dict(d: dict) -> "TailLimits":
        if not isinstance(d, dict):
            raise UnknownFormat(f"declared_limits must be an object, got {d!r}")
        return TailLimits(**{k: _decode_extended(d.get(k), k) for k in _LIMITS})


@dataclass(frozen=True)
class SequenceSpec:
    """Generator for the sequences {a_i}, {b_i} of a staircase family.

    kind selects the functional form:

      power_law        a_i = c1 i^{-d},  b_i = c2 i^{-d},  d > 1
      geometric        a_i = c e^{-i},   b_i = e^{-i}
      mixed_geometric  a_i = c e^{-i},   b_i = e^{-2i}
      alternating      a_i = c e^{-i} (i even) / e^{-2i} (i odd), b_i swapped
      table            explicit positive entries, extended geometrically
                       beyond the table with ratio tail_ratio

    to_json_dict and from_json_dict read each kind's params from
    _KIND_PARAMS. Construction does not normalize; build_family
    renormalizes the truncated mass, so only ratios of parameters matter
    there. The factory helpers (power_law(), geometric(), ...) solve the
    missing constants so the untruncated mass is one, matching the usual
    presentation of these families.
    """

    kind: str
    d: float | None = None
    c1: float | None = None
    c2: float | None = None
    c: float | None = None
    a_table: tuple[float, ...] | None = None
    b_table: tuple[float, ...] | None = None
    tail_ratio: float | None = None
    declared_limits: TailLimits | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise NonPositiveSequence(f"unknown sequence kind {self.kind!r}")
        if self.kind == "power_law":
            if self.d is None or not (math.isfinite(self.d) and self.d > 1):
                raise NonPositiveSequence("power_law requires a finite d > 1")
            for v in (self.c1, self.c2):
                if v is None or not (math.isfinite(v) and v > 0):
                    raise NonPositiveSequence("power_law requires c1 > 0 and c2 > 0")
        elif self.kind in ("geometric", "mixed_geometric", "alternating"):
            if self.c is None or not (math.isfinite(self.c) and self.c > 0):
                raise NonPositiveSequence(f"{self.kind} requires c > 0")
        elif self.kind == "table":
            for name, tab in (("a", self.a_table), ("b", self.b_table)):
                if not tab:
                    raise NonPositiveSequence(f"table requires a nonempty {name} table")
                arr = np.asarray(tab, dtype=float)
                if not (np.isfinite(arr).all() and (arr > 0).all()):
                    raise NonPositiveSequence(f"table {name} entries must be positive and finite")
            r = self.tail_ratio if self.tail_ratio is not None else 0.5
            if not (0 < r < 1):
                raise NonPositiveSequence("tail_ratio must lie in (0, 1)")
            object.__setattr__(self, "tail_ratio", float(r))
            object.__setattr__(self, "a_table", tuple(float(v) for v in self.a_table))
            object.__setattr__(self, "b_table", tuple(float(v) for v in self.b_table))

    # -- evaluation ------------------------------------------------------

    def log_a(self, i) -> np.ndarray:
        """log a_i for an integer index array with every entry >= 1."""
        return self._log_seq(i, which="a")

    def log_b(self, i) -> np.ndarray:
        """log b_i for an integer index array with every entry >= 1."""
        return self._log_seq(i, which="b")

    def _log_seq(self, i, which: str) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        if i.size and i.min() < 1:
            raise IndexOutOfRange("sequence indices start at 1")
        x = i.astype(float)
        if self.kind == "power_law":
            c = self.c1 if which == "a" else self.c2
            with np.errstate(over="ignore"):    # -inf, which build_family refuses
                return math.log(c) - self.d * np.log(x)
        if self.kind == "geometric":
            return (math.log(self.c) - x) if which == "a" else -x
        if self.kind == "mixed_geometric":
            return (math.log(self.c) - x) if which == "a" else -2.0 * x
        if self.kind == "alternating":
            slow = math.log(self.c) - x
            fast = -2.0 * x
            even = i % 2 == 0
            if which == "a":
                return np.where(even, slow, fast)
            return np.where(even, fast, slow)
        # table
        tab = np.log(np.asarray(self.a_table if which == "a" else self.b_table))
        n = len(tab)
        out = np.empty(x.shape, dtype=float)
        inside = i <= n
        out[inside] = tab[i[inside] - 1]
        beyond = ~inside
        out[beyond] = tab[-1] + (i[beyond] - n) * math.log(self.tail_ratio)
        return out

    def log_mass_beyond(self, horizon: int) -> float:
        """log of the untruncated mass sum_{i > horizon} (a_i + b_i).

        Closed form for the geometric kinds, the Euler-Maclaurin sum of
        _zeta for power laws, and tail-ratio extrapolation for tables.
        Used to complete tail sums that are otherwise evaluated termwise.
        """
        if horizon < 1:
            raise IndexOutOfRange("horizon must be at least 1")
        h = float(horizon)
        if self.kind == "geometric":
            return math.log1p(self.c) - (h + 1.0) - math.log(1.0 - math.exp(-1.0))
        if self.kind in ("mixed_geometric", "alternating"):
            slow = math.log(self.c) - (h + 1.0) - math.log(1.0 - math.exp(-1.0))
            fast = -2.0 * (h + 1.0) - math.log(1.0 - math.exp(-2.0))
            return float(np.logaddexp(slow, fast))
        if self.kind == "power_law":
            return (math.log(self.c1 + self.c2) - self.d * math.log(h + 1.0)
                    + math.log(_zeta(self.d, horizon + 1)))
        # table: remaining explicit entries plus the geometric extension
        logs = []
        r = self.tail_ratio
        for tab in (self.a_table, self.b_table):
            n = len(tab)
            if horizon < n:
                rest = np.log(np.asarray(tab[horizon:]))
                logs.append(float(np.logaddexp.reduce(rest)))
                start = math.log(tab[-1])
                logs.append(start + math.log(r) - math.log1p(-r))
            else:
                # entries beyond the table: tab[-1] * r^(i - n), i > horizon
                start = math.log(tab[-1]) + (horizon + 1 - n) * math.log(r)
                logs.append(start - math.log1p(-r))
        return float(np.logaddexp.reduce(np.array(logs)))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        params = {}
        for name, fld in _KIND_PARAMS[self.kind].items():
            v = getattr(self, fld)
            params[name] = list(v) if fld.endswith("_table") else v
        out = {"kind": self.kind, "params": params}
        if self.declared_limits is not None:
            out["declared_limits"] = self.declared_limits.to_json_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d: dict) -> "SequenceSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise UnknownFormat("spec must be a JSON object with a kind, "
                                f"got {d!r:.60}")
        kind, params = d["kind"], d.get("params", {})
        if not isinstance(params, dict):
            raise UnknownFormat(f"params must be an object, got {params!r}")
        limits = None
        if d.get("declared_limits") is not None:
            limits = TailLimits.from_json_dict(d["declared_limits"])

        def scalar(name):
            v = params.get(name)
            return None if v is None else _real(v, name)

        def array(name):
            v = params.get(name, [])
            if not isinstance(v, list):
                raise UnknownFormat(f"{name} must be an array, got {v!r}")
            return tuple(_real(e, f"{name} entry") for e in v)

        # a kind such as [] is unhashable; it fails this test, not the lookup
        if kind not in KINDS:
            raise NonPositiveSequence(f"unknown sequence kind {kind!r}")
        return SequenceSpec(kind=kind, declared_limits=limits, **{
            fld: (array if fld.endswith("_table") else scalar)(name)
            for name, fld in _KIND_PARAMS[kind].items()})

    @staticmethod
    def from_json(text: str) -> "SequenceSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UnknownFormat(f"spec is not valid JSON: {exc}") from exc
        return SequenceSpec.from_json_dict(doc)


# -- normalization solving ----------------------------------------------

# B_2j / (2j)! for j = 1..12 as (numerator, denominator) of B_2j; the
# int division below rounds each coefficient once
_EM_COEFFS = tuple(
    num / (den * math.factorial(2 * j)) for j, (num, den) in enumerate((
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
        (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
        (-236364091, 2730)), 1))


def _zeta(s: float, m: int = 1) -> float:
    """m^s zeta(s, m) = m^s sum_{k >= m} k^-s at real s > 1 and integer
    m >= 1 (Riemann zeta at m = 1), by Euler-Maclaurin from n = m + 8:

        sum_{k>=m} (k/m)^-s = sum_{m<=k<n} (k/m)^-s + (n/m)^(1-s) m/(s-1)
                  + (n/m)^-s/2
                  + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) (n/m)^-s n^(-2j+1),

    j = 1..12. The scaling by m^s keeps the value between 1 and about
    m/(s-1), so it cannot underflow. The remainder is below 1e-17
    relative; for m > 1 rounding k/m costs up to about s ulps.
    """
    n = m + 8
    terms = [(k / m) ** -s for k in range(m, n)]
    terms += [(n / m) ** (1.0 - s) * m / (s - 1.0), 0.5 * (n / m) ** -s]
    t = s * (n / m) ** -s / n               # the j = 1 factor
    for j, coef in enumerate(_EM_COEFFS, 1):
        terms.append(coef * t)
        t = t * (s + 2 * j - 1) / n * (s + 2 * j) / n
    return math.fsum(terms)


def _total_mass(kind: str, c: float, d: float | None = None) -> float:
    """Untruncated mass of the kind's sequences at constant c (closed forms)."""
    e1 = math.exp(-1.0)
    if kind == "geometric":
        return (1.0 + c) * e1 / (1.0 - e1)
    if kind in ("mixed_geometric", "alternating"):
        # every index contributes c e^{-i} + e^{-2i} between the two sequences
        return c * e1 / (1.0 - e1) + math.exp(-2.0) / (1.0 - math.exp(-2.0))
    if kind == "power_law":
        return 2.0 * c * _zeta(d)
    raise NonPositiveSequence(f"no closed-form mass for kind {kind!r}")


def solve_constant(kind: str, d: float | None = None) -> float:
    """Constant making the untruncated mass equal one.

    The mass is affine in c for every kind, (1 + c) k, c k + k' or
    2 c zeta(d), so the root of m(c) = 1 is (1 - m(0)) / (m(1) - m(0)).
    """
    if kind == "power_law" and (d is None or not d > 1):
        raise NonPositiveSequence("power_law requires d > 1")   # zeta(d) finite
    m0, m1 = _total_mass(kind, 0.0, d), _total_mass(kind, 1.0, d)
    c = (1.0 - m0) / (m1 - m0)
    if not c > 0:
        raise NonPositiveSequence("mass equation has no positive root")
    return c


# -- factory helpers -----------------------------------------------------


def power_law(d: float, c1: float | None = None, c2: float | None = None) -> SequenceSpec:
    """Power-law spec; when c1 and c2 are omitted they are solved equal."""
    if c1 is None and c2 is None:
        c1 = c2 = solve_constant("power_law", d=d)
    if (c1 is None) != (c2 is None):
        raise NonPositiveSequence("give both c1 and c2 or neither")
    if not (math.isfinite(c1) and c1 > 0 and math.isfinite(c2) and c2 > 0):
        raise NonPositiveSequence("power_law requires c1 > 0 and c2 > 0")
    limits = TailLimits(A=1.0, lim_ab=c1 / c2, lim_a_over_bprev=c1 / c2,
                        lim_b_over_a=c2 / c1)
    return SequenceSpec(kind="power_law", d=float(d), c1=float(c1), c2=float(c2),
                        declared_limits=limits)


def geometric(c: float | None = None) -> SequenceSpec:
    """Geometric spec a_i = c e^{-i}, b_i = e^{-i}; c solved when omitted."""
    if c is None:
        c = solve_constant("geometric")
    if not (math.isfinite(c) and c > 0):
        raise NonPositiveSequence("geometric requires c > 0")
    e1 = math.exp(-1.0)
    limits = TailLimits(A=e1, lim_ab=float(c), lim_a_over_bprev=float(c) * e1,
                        lim_b_over_a=1.0 / float(c))
    return SequenceSpec(kind="geometric", c=float(c), declared_limits=limits)


def mixed_geometric(c: float | None = None) -> SequenceSpec:
    """Spec a_i = c e^{-i}, b_i = e^{-2i}; the b tail is strictly thinner."""
    if c is None:
        c = solve_constant("mixed_geometric")
    limits = TailLimits(A=math.exp(-1.0), lim_ab=math.inf,
                        lim_a_over_bprev=math.inf, lim_b_over_a=0.0)
    return SequenceSpec(kind="mixed_geometric", c=float(c), declared_limits=limits)


def alternating(c: float | None = None) -> SequenceSpec:
    """Parity-swapped spec; none of the tail ratios converge, so no limits
    are declared and everything must be estimated or tested numerically."""
    if c is None:
        c = solve_constant("alternating")
    return SequenceSpec(kind="alternating", c=float(c), declared_limits=None)


def table(a: tuple[float, ...], b: tuple[float, ...], tail_ratio: float | None = None,
          declared_limits: TailLimits | None = None) -> SequenceSpec:
    return SequenceSpec(kind="table", a_table=tuple(a), b_table=tuple(b),
                        tail_ratio=tail_ratio, declared_limits=declared_limits)


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
    la, lb, log_mass = _renormalize(la, lb)

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
    log_mass = np.logaddexp.reduce(np.concatenate([la, lb]))
    if not np.isfinite(log_mass):
        raise DegenerateTruncation("retained mass is zero or not finite")
    return la - log_mass, lb - log_mass, log_mass


def birth_death_probs(fam: BivariateFamily, x: int) -> tuple[float, float]:
    """(p_x, q_x) of the x-marginal birth-death chain; 1 <= x <= N."""
    if not 1 <= x <= fam.N:
        raise IndexOutOfRange(f"x = {x} outside 1..{fam.N}")
    return float(fam.p[x - 1]), float(fam.q[x - 1])


# -- tail ratio estimation ------------------------------------------------


@dataclass(frozen=True)
class TailEstimates:
    """Window estimates of the limiting ratios that decide ergodicity.

    A            limsup a_i / a_{i-1}
    m, M         liminf and limsup of a_i / b_i
    a_over_bprev limsup a_i / b_{i-1}
    b_over_a     limsup b_i / a_i

    converged[k] is True when the window estimate of k moved by at most
    1e-6 relatively between the two halves of the window, or when the
    value was declared on the spec (declared[k] True in that case).
    Values may be infinite when a ratio diverges.
    """

    A: float
    m: float
    M: float
    a_over_bprev: float
    b_over_a: float
    converged: dict
    declared: dict


def _exp_sat(log_v: float) -> float:
    """exp that saturates to inf instead of raising on overflow."""
    try:
        return math.exp(log_v)
    except OverflowError:
        return math.inf


def tail_limits(spec: SequenceSpec, window: int = 50, horizon: int = 800) -> TailEstimates:
    """Estimate limiting ratios from the last `window` of `horizon` indices.

    Declared limits on the spec take precedence field by field. The
    limsup (liminf) surrogates are the window max (min); the convergence
    flag compares the two window halves in log space at 1e-6.
    """
    if window < 10:
        raise IndexOutOfRange("window must be at least 10")
    if horizon < 2 * window:
        raise IndexOutOfRange("horizon must be at least twice the window")
    i = np.arange(horizon - window + 1, horizon + 1)
    la, lb = spec.log_a(i), spec.log_b(i)
    lap, lbp = spec.log_a(i - 1), spec.log_b(i - 1)

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
        A=vals["A"], m=vals["m"], M=vals["M"],
        a_over_bprev=vals["a_over_bprev"], b_over_a=vals["b_over_a"],
        converged=conv, declared=decl,
    )


__all__ = [
    "SequenceSpec", "TailLimits", "TailEstimates", "BivariateFamily",
    "build_family", "birth_death_probs", "tail_limits", "solve_constant",
    "power_law", "geometric", "mixed_geometric", "alternating", "table",
    "KINDS",
]

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

KINDS = ("power_law", "geometric", "mixed_geometric", "alternating", "table")

_LIMIT_FIELDS = ("A", "lim_ab", "lim_a_over_bprev", "lim_b_over_a")


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
    unknown or does not exist. lim_ab is the common value of
    liminf a_i/b_i and limsup a_i/b_i when that limit exists.
    """

    A: float | None = None
    lim_ab: float | None = None
    lim_a_over_bprev: float | None = None
    lim_b_over_a: float | None = None

    def to_json_dict(self) -> dict:
        return {k: _encode_extended(getattr(self, k)) for k in _LIMIT_FIELDS}

    @staticmethod
    def from_json_dict(d: dict) -> "TailLimits":
        if not isinstance(d, dict):
            raise UnknownFormat(f"declared_limits must be an object, got {d!r}")
        return TailLimits(**{k: _decode_extended(d.get(k), k) for k in _LIMIT_FIELDS})


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

    Construction does not normalize; build_family renormalizes the
    truncated mass, so only ratios of parameters matter there. The
    factory helpers (power_law(), geometric(), ...) solve the missing
    constants so the untruncated mass is one, matching the usual
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

        Closed form for the geometric kinds, a midpoint integral estimate
        for power laws, and tail-ratio extrapolation for tables. Used to
        complete tail sums that are otherwise evaluated termwise.
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
            return (math.log(self.c1 + self.c2)
                    + (1.0 - self.d) * math.log(h + 0.5) - math.log(self.d - 1.0))
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
        params: dict = {}
        if self.kind == "power_law":
            params = {"d": self.d, "c1": self.c1, "c2": self.c2}
        elif self.kind in ("geometric", "mixed_geometric", "alternating"):
            params = {"c": self.c}
        else:
            params = {
                "a": list(self.a_table),
                "b": list(self.b_table),
                "tail_ratio": self.tail_ratio,
            }
        out = {"kind": self.kind, "params": params}
        if self.declared_limits is not None:
            out["declared_limits"] = self.declared_limits.to_json_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d: dict) -> "SequenceSpec":
        try:
            kind = d["kind"]
            params = d.get("params", {})
        except (TypeError, KeyError) as exc:
            raise UnknownFormat(f"malformed spec document: {exc}") from exc
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

        if kind == "power_law":
            return SequenceSpec(kind=kind, d=scalar("d"), c1=scalar("c1"),
                                c2=scalar("c2"), declared_limits=limits)
        if kind in ("geometric", "mixed_geometric", "alternating"):
            return SequenceSpec(kind=kind, c=scalar("c"), declared_limits=limits)
        if kind == "table":
            return SequenceSpec(kind=kind, a_table=array("a"), b_table=array("b"),
                                tail_ratio=scalar("tail_ratio"),
                                declared_limits=limits)
        raise NonPositiveSequence(f"unknown sequence kind {kind!r}")

    @staticmethod
    def from_json(text: str) -> "SequenceSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UnknownFormat(f"spec is not valid JSON: {exc}") from exc
        return SequenceSpec.from_json_dict(doc)


# -- normalization solving ----------------------------------------------


def _total_mass(kind: str, c: float, d: float | None = None) -> float:
    """Untruncated mass of the kind's sequences at constant c (closed forms)."""
    e1 = math.exp(-1.0)
    if kind == "geometric":
        return (1.0 + c) * e1 / (1.0 - e1)
    if kind in ("mixed_geometric", "alternating"):
        # every index contributes c e^{-i} + e^{-2i} between the two sequences
        return c * e1 / (1.0 - e1) + math.exp(-2.0) / (1.0 - math.exp(-2.0))
    if kind == "power_law":
        from scipy.special import zeta

        return 2.0 * c * float(zeta(d))
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

    def support_states(self) -> list[tuple[int, int]]:
        """Staircase states (1,1), (2,1), (2,2), ..., (N,N); 2N-1 of them."""
        out = [(1, 1)]
        for y in range(1, self.N):
            out.append((y + 1, y))
            out.append((y + 1, y + 1))
        return out

    def support_probs(self) -> np.ndarray:
        """pi over support_states(), in the same order."""
        logs = np.empty(2 * self.N - 1)
        logs[0::2] = self.log_a
        logs[1::2] = self.log_b[: self.N - 1]
        return np.exp(logs)


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
    alpha = np.exp(la - log_pix)                    # P(Y = x | X = x)
    one_minus_beta = np.exp(la - log_piy)
    p = beta * alpha
    q = delta * np.concatenate(([0.0], one_minus_beta[:-1]))

    return BivariateFamily(
        spec=spec, N=int(N), log_a=la, log_b=lb,
        retained_mass=float(np.exp(log_mass)),
        log_pix=log_pix, log_piy=log_piy,
        beta=beta, delta=delta, p=p, q=q,
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

    def to_json_dict(self) -> dict:
        return {
            "A": _encode_extended(self.A),
            "m": _encode_extended(self.m),
            "M": _encode_extended(self.M),
            "a_over_bprev": _encode_extended(self.a_over_bprev),
            "b_over_a": _encode_extended(self.b_over_a),
            "converged": dict(self.converged),
            "declared": dict(self.declared),
        }


def _exp_sat(log_v: float) -> float:
    """exp that saturates to inf instead of raising on overflow."""
    return math.inf if log_v > 709.0 else math.exp(log_v)


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

    def est(logs: np.ndarray, op) -> tuple[float, bool]:
        half = len(logs) // 2
        e1, e2 = op(logs[:half]), op(logs[half:])
        e = op(logs)
        return float(e), bool(abs(e2 - e1) <= 1e-6)

    A_log, A_ok = est(la - lap, np.max)
    m_log, m_ok = est(la - lb, np.min)
    M_log, M_ok = est(la - lb, np.max)
    abp_log, abp_ok = est(la - lbp, np.max)
    boa_log, boa_ok = est(lb - la, np.max)

    vals = {
        "A": _exp_sat(A_log), "m": _exp_sat(m_log), "M": _exp_sat(M_log),
        "a_over_bprev": _exp_sat(abp_log), "b_over_a": _exp_sat(boa_log),
    }
    conv = {"A": A_ok, "m": m_ok, "M": M_ok, "a_over_bprev": abp_ok, "b_over_a": boa_ok}
    decl = {k: False for k in vals}

    dl = spec.declared_limits
    if dl is not None:
        if dl.A is not None:
            vals["A"], conv["A"], decl["A"] = dl.A, True, True
        if dl.lim_ab is not None:
            vals["m"] = vals["M"] = dl.lim_ab
            conv["m"] = conv["M"] = decl["m"] = decl["M"] = True
        if dl.lim_a_over_bprev is not None:
            vals["a_over_bprev"], conv["a_over_bprev"] = dl.lim_a_over_bprev, True
            decl["a_over_bprev"] = True
        if dl.lim_b_over_a is not None:
            vals["b_over_a"], conv["b_over_a"] = dl.lim_b_over_a, True
            decl["b_over_a"] = True

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

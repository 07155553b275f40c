"""Sequence specifications, chain names and the chain checks, without numpy.

A SequenceSpec names a kind of sequence pair {a_i}, {b_i} and its
parameters (see its docstring). This module holds it, its JSON codec,
the strict JSON writer, the constructors power_law, geometric,
mixed_geometric, alternating and table, the closed forms of each kind
(solve_constant, with a pure-Python zeta, and tail_limits, which gives
the exact TailLimits row of every kind in KINDS), the chain names,
check_scan_p and check_gap_kind. None of that imports numpy, so a
command can refuse a bad spec or argument before any numeric module
loads; numpy is imported only where a sequence is evaluated (log_a,
log_b and log_mass_beyond).

Nor does importing it load dataclasses (and with it inspect) or json:
the two records are immutable named tuples, SequenceSpec's constructor
validates, and json is imported by the codec functions that use it.
A kind added to KINDS brings its own tail_limits row.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import (BadScanProbability, IndexOutOfRange, NonPositiveSequence,
                     NotSymmetricKernel, UnknownFormat)

# each sequence kind's JSON params and the SequenceSpec field holding each:
# the arrays a and b in a_table and b_table, every number under its own name
_KIND_PARAMS = {
    "power_law": {"d": "d", "c1": "c1", "c2": "c2"},
    **dict.fromkeys(("geometric", "mixed_geometric", "alternating"), {"c": "c"}),
    "table": {"a": "a_table", "b": "b_table", "tail_ratio": "tail_ratio"},
}
KINDS = tuple(_KIND_PARAMS)


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


def _dump_json(obj) -> str:
    """obj as strict JSON (NaN and inf refused), indented with sorted keys."""
    import json

    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _real(v, name: str) -> float:
    """A JSON number as a float; UnknownFormat for bools, strings and the rest."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise UnknownFormat(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise UnknownFormat(f"{name} = {v!r} is out of range") from None


class SequenceSpec(namedtuple("SequenceSpec", "kind d c1 c2 c a_table b_table "
                                              "tail_ratio")):
    """Generator for the sequences {a_i}, {b_i} of a staircase family.

    kind selects the functional form:

      power_law        a_i = c1 i^{-d},  b_i = c2 i^{-d},  d > 1
      geometric        a_i = c e^{-i},   b_i = e^{-i}
      mixed_geometric  a_i = c e^{-i},   b_i = e^{-2i}
      alternating      a_i = c e^{-i} (i even) / e^{-2i} (i odd), b_i swapped
      table            explicit positive entries, extended geometrically
                       beyond the table with ratio tail_ratio

    The fields are kind, then d, c1, c2, c, a_table, b_table and
    tail_ratio, each None unless the kind uses it; a table's entries and
    tail_ratio (0.5 when omitted) are stored as floats. to_json_dict and
    from_json_dict read each kind's params from _KIND_PARAMS, and
    from_json_dict refuses a key that the kind does not read. Construction does not normalize; build_family
    renormalizes the truncated mass, so only ratios of parameters matter
    there. The factory helpers (power_law(), geometric(), ...) solve the
    missing constants so the untruncated mass is one, matching the usual
    presentation of these families.
    """

    __slots__ = ()

    def __new__(cls, kind, d=None, c1=None, c2=None, c=None, a_table=None,
                b_table=None, tail_ratio=None):
        if kind not in KINDS:
            raise NonPositiveSequence(f"unknown sequence kind {kind!r}")
        if kind == "power_law":
            if d is None or not (math.isfinite(d) and d > 1):
                raise NonPositiveSequence("power_law requires a finite d > 1")
            for v in (c1, c2):
                if v is None or not (math.isfinite(v) and v > 0):
                    raise NonPositiveSequence("power_law requires c1 > 0 and c2 > 0")
        elif kind in ("geometric", "mixed_geometric", "alternating"):
            if c is None or not (math.isfinite(c) and c > 0):
                raise NonPositiveSequence(f"{kind} requires c > 0")
        elif kind == "table":
            tables = []
            for name, tab in (("a", a_table), ("b", b_table)):
                if not tab:
                    raise NonPositiveSequence(f"table requires a nonempty {name} table")
                # every entry converted before any is tested; None reads as
                # NaN, as in a float array
                vals = tuple(math.nan if v is None else float(v) for v in tab)
                if not all(0 < v < math.inf for v in vals):
                    raise NonPositiveSequence(f"table {name} entries must be positive and finite")
                tables.append(vals)
            r = tail_ratio if tail_ratio is not None else 0.5
            if not (0 < r < 1):
                raise NonPositiveSequence("tail_ratio must lie in (0, 1)")
            a_table, b_table = tables
            tail_ratio = float(r)
        return tuple.__new__(cls, (kind, d, c1, c2, c, a_table, b_table, tail_ratio))

    @classmethod
    def _make(cls, iterable):
        """As the constructor, so _replace validates and normalizes too."""
        return cls(*iterable)

    # -- evaluation ------------------------------------------------------

    def log_a(self, i) -> np.ndarray:
        """log a_i for an integer index array with every entry >= 1."""
        return self._log_seq(i, which="a")

    def log_b(self, i) -> np.ndarray:
        """log b_i for an integer index array with every entry >= 1."""
        return self._log_seq(i, which="b")

    def _log_seq(self, i, which: str) -> np.ndarray:
        import numpy as np

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
        import numpy as np

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
        return {"kind": self.kind, "params": params}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d: dict) -> "SequenceSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise UnknownFormat("spec must be a JSON object with a kind, "
                                f"got {d!r:.60}")
        kind, params = d["kind"], d.get("params", {})
        if not isinstance(params, dict):
            raise UnknownFormat(f"params must be an object, got {params!r}")
        if "declared_limits" in d:
            raise UnknownFormat("declared_limits is no longer read: every kind's "
                                "tail limits are exact (spec.tail_limits)")

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
        names = _KIND_PARAMS[kind]
        for key in d:
            if key not in ("kind", "params"):
                raise UnknownFormat(f"spec key {key!r} is not read: a spec has "
                                    "only kind and params")
        for key in params:
            if key not in names:
                raise UnknownFormat(f"params key {key!r} is not read: a {kind} "
                                    f"spec's params are {', '.join(names)}")
        return SequenceSpec(kind=kind, **{
            fld: (array if fld.endswith("_table") else scalar)(name)
            for name, fld in names.items()})

    @staticmethod
    def from_json(text: str) -> "SequenceSpec":
        import json

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


# -- exact tail limits ----------------------------------------------------


class TailLimits(namedtuple("TailLimits", "A m M a_over_bprev b_over_a r_hat "
                                          "q_hat exist")):
    """The limiting ratios of a spec's untruncated tail, exact per kind.

    A            limsup a_i / a_{i-1}
    m, M         liminf and limsup of a_i / b_i
    a_over_bprev limsup a_i / b_{i-1}
    b_over_a     limsup b_i / a_i
    r_hat        limsup t_i / t_{i-1} = p_i / q_i, t_i = a_i b_i / (a_i + b_i)
    q_hat        liminf q_i, the marginal's down-probability
    exist        whether lim a_i / a_{i-1} and lim a_i / b_i exist

    inf is a limit that is infinite. A finite limit above float range
    reads as the largest float, so it stays finite, and one below it as 0.
    """

    __slots__ = ()


_E1 = math.exp(-1.0)


def _exp_finite(log_v: float) -> float:
    """exp(log_v), the largest float where that overflows."""
    try:
        return math.exp(log_v)
    except OverflowError:
        return sys.float_info.max


def _log1p_exp(v: float) -> float:
    """log(1 + e^v) without overflow."""
    return v + math.log1p(math.exp(-v)) if v > 0 else math.log1p(math.exp(v))


def _ratio_row(log_k: float, r: float) -> TailLimits:
    """The row of a tail with a_i / b_i = k and a_i / a_{i-1} = r, where
    t_i / t_{i-1} = r and q_i = k / ((k r + 1)(k + 1)), formed in logs."""
    log_r = math.log(r)
    log_q = log_k - _log1p_exp(log_k + log_r) - _log1p_exp(log_k)
    k = _exp_finite(log_k)
    return TailLimits(A=r, m=k, M=k, a_over_bprev=_exp_finite(log_k + log_r),
                      b_over_a=_exp_finite(-log_k), r_hat=r, q_hat=math.exp(log_q),
                      exist=True)


def tail_limits(spec: SequenceSpec) -> TailLimits:
    """The exact TailLimits of spec's kind, in closed form.

    In power_law, geometric and table, a_i / b_i tends to k and
    a_i / a_{i-1} to r: k = c1/c2 with r = 1, k = c with r = e^-1, and
    beyond the table k = (a_last / b_last) r^(len b - len a) with
    r = tail_ratio. mixed_geometric has a_i / b_i = c e^i, and alternating
    swaps its two rates by parity, so its ratios oscillate between 0 and
    inf; in both t_i is e^-2i to first order and q_i tends to 0 (for
    alternating, along even i).
    """
    if spec.kind == "power_law":
        return _ratio_row(math.log(spec.c1) - math.log(spec.c2), 1.0)
    if spec.kind == "geometric":
        return _ratio_row(math.log(spec.c), _E1)
    if spec.kind == "table":
        r = spec.tail_ratio
        return _ratio_row(math.log(spec.a_table[-1]) - math.log(spec.b_table[-1])
                          + (len(spec.b_table) - len(spec.a_table)) * math.log(r), r)
    inf, e2 = math.inf, math.exp(-2.0)
    if spec.kind == "mixed_geometric":
        return TailLimits(A=_E1, m=inf, M=inf, a_over_bprev=inf, b_over_a=0.0,
                          r_hat=e2, q_hat=0.0, exist=True)
    return TailLimits(A=inf, m=0.0, M=inf, a_over_bprev=_E1, b_over_a=inf,
                      r_hat=e2, q_hat=0.0, exist=False)


def _tail_start(spec: SequenceSpec) -> int | None:
    """K such that the untruncated chain's p_x, q_x, beta_y and stay_y
    are constant for x, y > K: 2 for geometric, whose a_i / b_i and
    a_i / b_{i-1} are constant from i = 2, and max(len a, len b) + 2 for
    a table, whose ratios are constant past both tables. None for the
    other kinds, whose rows never settle; their tail limits fire a
    divergence flag."""
    if spec.kind == "geometric":
        return 2
    if spec.kind == "table":
        return max(len(spec.a_table), len(spec.b_table)) + 2
    return None


# -- factory helpers -----------------------------------------------------


def power_law(d: float, c1: float | None = None, c2: float | None = None) -> SequenceSpec:
    """Power-law spec; when c1 and c2 are omitted they are solved equal."""
    if c1 is None and c2 is None:
        c1 = c2 = solve_constant("power_law", d=d)
    if (c1 is None) != (c2 is None):
        raise NonPositiveSequence("give both c1 and c2 or neither")
    if not (math.isfinite(c1) and c1 > 0 and math.isfinite(c2) and c2 > 0):
        raise NonPositiveSequence("power_law requires c1 > 0 and c2 > 0")
    return SequenceSpec(kind="power_law", d=float(d), c1=float(c1), c2=float(c2))


def geometric(c: float | None = None) -> SequenceSpec:
    """Geometric spec a_i = c e^{-i}, b_i = e^{-i}; c solved when omitted."""
    if c is None:
        c = solve_constant("geometric")
    if not (math.isfinite(c) and c > 0):
        raise NonPositiveSequence("geometric requires c > 0")
    return SequenceSpec(kind="geometric", c=float(c))


def mixed_geometric(c: float | None = None) -> SequenceSpec:
    """Spec a_i = c e^{-i}, b_i = e^{-2i}; the b tail is strictly thinner."""
    if c is None:
        c = solve_constant("mixed_geometric")
    return SequenceSpec(kind="mixed_geometric", c=float(c))


def alternating(c: float | None = None) -> SequenceSpec:
    """Parity-swapped spec; lim a_i/a_{i-1} and lim a_i/b_i do not exist."""
    if c is None:
        c = solve_constant("alternating")
    return SequenceSpec(kind="alternating", c=float(c))


def table(a: tuple[float, ...], b: tuple[float, ...],
          tail_ratio: float | None = None) -> SequenceSpec:
    return SequenceSpec(kind="table", a_table=tuple(a), b_table=tuple(b),
                        tail_ratio=tail_ratio)


# -- chains and scans ------------------------------------------------------

MARGINAL_X = "marginal_x"
DGS = "dgs"
RGS = "rgs"


def check_scan_p(scan_p) -> float:
    """scan_p as a float when it lies strictly inside (0, 1); anything
    else raises BadScanProbability."""
    if not (isinstance(scan_p, (int, float)) and 0.0 < scan_p < 1.0):
        raise BadScanProbability(f"scan probability {scan_p!r} not in (0, 1)")
    return float(scan_p)


def check_gap_kind(kind: str) -> None:
    """NotSymmetricKernel unless kind is marginal_x or rgs: dgs is not reversible."""
    if kind not in (MARGINAL_X, RGS):
        raise NotSymmetricKernel(f"spectral gap undefined for kind {kind!r}")


__all__ = [
    "SequenceSpec", "TailLimits", "KINDS", "solve_constant", "tail_limits",
    "power_law", "geometric", "mixed_geometric", "alternating", "table",
    "MARGINAL_X", "DGS", "RGS", "check_scan_p", "check_gap_kind",
]

"""Geometric drift certificates for the marginal and random-scan chains.

The test function is V(x) = z^x with z > 1. One step of the birth-death
marginal, up with probability p_x and down with q_x (build_Px's
diagonals), multiplies V by 1 + eps(x), and the excess

    eps(x) = p_x (z - 1) - q_x (1 - 1/z)

is formed from z - 1, which is exact, so no number near 1 is formed. A
certificate is a base z, a margin delta with eps(x) <= -delta beyond a
threshold x0, and L = max_{x <= x0} E[V(X_1) | X_0 = x], so that
E[V(X_1) | X_0 = x] <= (1 - delta) V(x) + L. The one eps array serves
both: x0 is read from it, and log L is the largest x log z +
log1p(eps(x)) for x <= x0.

The tail constants r_hat = limsup p_x / q_x and q_hat = liminf q_x are
the spec's exact tail limits, spec.tail_limits. For z < 2 / (r + 1) the
rate rho(z) = 1 + (q/2)(z - 1)((r + 1)/2 - 1/z) is smallest at
z* = sqrt(2 / (r + 1)), with delta = 1 - rho* = (q/2)(1 - u)^2,
u = sqrt((r + 1)/2), taken in closed form with 1 - u = ((1 - r)/2) /
(1 + u). The certificate uses z*; rho is 1 - delta rounded up to
float64, so it never states a faster rate than the one verified, and
log10_one_minus_rho carries delta.

A certificate belongs to the tail. Beyond K = spec._tail_start (2 for
geometric, max(len a, len b) + 2 for a table; every other kind fires a
flag) the untruncated chain's p_x and q_x are constant. The head
family, the truncation at K + 3, has the untruncated rows up to K + 2,
so its row K + 1 stands for every row beyond K. The search and the
check run on it and keep x0 <= K, so the certificate holds for the
untruncated chain, and every field but N is the same at every N. It
holds on each truncation too, whose rows are the untruncated chain's
except row N, where p_N = 0 lowers the excess.

eps(x) <= -delta is decided row by row (_excess), with no tolerance. The
float excess, from the family's own p and q, settles each row more than
64 (1 + s) eps64 (p_x (z - 1) + q_x (1 - 1/z)) from -delta, s the
largest |log| the family stores plus |log| of the spec's top weight: the
spec's logs, the shift to the family's and the family's logs are each at
most s in size and round at it, so p_x and q_x are within a few s eps64
of the spec's exact ratios (a term-by-term count gives 4 + 12 s for the
excess). A table's open row is decided exactly (fractions.Fraction) in
the spec's float entries and tail ratio, from the top row down; rows
beyond K + 1 share row K + 1's value and row N drops its up-move, so the
exact work is O(K) at any N. An open row of another kind counts as above
-delta, which can only raise x0; geometric leaves none, its tail rows
sitting 0.32 (p_x (z - 1) + q_x (1 - 1/z)) below -delta. The tail's
exact excess at z* is -2 (2 + 1/u) delta <= -6 delta, so every spec
whose limits pass the ratio test is certified unless delta underflows
float64's normal range or z* rounds to 1.0 (r_hat within five ulps of 1,
V = z^x constant), or its limits fire a divergence flag
(subgeo.divergence_flags): no geometric drift. These three, each refused
with its reason, are drift's only exit 3.

The random-scan chain with scan probability s is certified by lifting.
With lo = s/(1-s) and c = lo / (1 - tau), 0 < tau < delta,

    W(x, y) = V(x) + c G(y),   G(y) = ((a_y + z b_y) / (a_y + b_y)) z^y,
    1 - gamma = s w / (1 - tau),   w = min(delta - tau, tau (1 - tau) / lo),

and one random-scan step satisfies E W <= gamma W + (1-s) c L. The
default tau = 1 - sqrt(1 - delta) makes c = sqrt(lo hi), the geometric
mean of the admissible interval, and 1 - gamma = min(s, 1 - s)(1 - sqrt(rho*)).
The lift is held as scan_p and tau alone, both float64 and set together,
and everything else is read from them: 1 - gamma is formed exactly
(fractions.Fraction) in their values and delta's, gamma is 1 - gamma
rounded up to float64, c is rounded to nearest, and
log10_one_minus_gamma carries 1 - gamma. So the lift holds where c
rounds to lo, and the rates a certificate states are the ones its
verification proves. One record, DriftCertificate, serves all three
chains (the deterministic scan's x-marginal is the marginal chain).

verify_drift checks eps(x) + delta on the rows x = 1..N of the family it
is given: at most 0 beyond x0 and at most L/V(x) up to it, delta being
the certificate's one_minus_rho (the closed form, or 1 - rho where a
hand-set rho claims more). A lifted certificate is checked on the same
rows. At a staircase pair (x, y) of the random scan, with w as above,

    (E W - gamma W) / ((1-s) c V(x)) = (c w - tau) G(y)/V(x)
                                       + (w + tau - delta) + eps(x) + delta,

and for 0 < s < 1 and 0 < tau < delta, which DriftCertificate enforces,
c w - tau <= 0, w + tau - delta <= 0 and G(y)/V(x) > 0: the lift holds
wherever the marginal rows do. certify, the one path that issues a
certificate, takes the spec and N and builds no family at N: it builds
the head family once and runs the search, the lift when a scan
probability is given, and one verification on that family.

A certificate proves the drift condition for the untruncated chain and
for each of its truncations. Whether the family converges geometrically
is classify's answer, read from the tail limits alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import COutOfRange
from .family import BivariateFamily, _check_N, _exp_sat, build_family
from .spec import (SequenceSpec, _encode_extended, _tail_start, check_scan_p,
                   tail_limits)
from .subgeo import divergence_flags

_FILTER = 64.0 * sys.float_info.epsilon   # per (1 + s)(p_x (z - 1) + q_x (1 - 1/z))


@dataclass(frozen=True)
class DriftCertificate:
    """Verified drift data for the marginal chain; lifted when scan_p is set.

    The lift is scan_p and tau = 1 - lo/c, set together with
    0 < tau < one_minus_rho; c and gamma are read from them."""

    z: float
    rho: float
    log_L: float
    x0: int
    r_hat: float
    q_hat: float
    N: int
    scan_p: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if (self.scan_p is None) != (self.tau is None):
            raise COutOfRange("a lift sets scan_p and tau together")
        if self.scan_p is not None:
            check_scan_p(self.scan_p)
            delta = self.one_minus_rho
            if not 0.0 < self.tau < delta:
                raise COutOfRange(f"tau = {self.tau!r} outside (0, {delta!r})")

    @property
    def L(self) -> float:
        return _exp_sat(self.log_L)

    @property
    def one_minus_rho(self) -> float:
        """delta, the margin verify_drift checks: 1 - rho* in closed form,
        or 1 - rho where rho claims a larger one."""
        return max(_one_minus_rho(self.r_hat, self.q_hat), 1.0 - self.rho)

    def _one_minus_gamma(self) -> Fraction:
        """1 - gamma = s w / (1 - tau), exact in the float64 values of
        scan_p, tau and delta."""
        s, tau, delta = map(Fraction, (self.scan_p, self.tau, self.one_minus_rho))
        w = min(delta - tau, tau * (1 - tau) * (1 - s) / s)
        return s * w / (1 - tau)

    @property
    def gamma(self) -> float | None:
        """The lifted rate, rounded up to float64; None before the lift."""
        return None if self.scan_p is None else _one_minus_up(self._one_minus_gamma())

    @property
    def c(self) -> float | None:
        """The lift constant lo / (1 - tau), rounded; None before the lift."""
        if self.scan_p is None:
            return None
        s = Fraction(self.scan_p)
        return float(s / ((1 - s) * (1 - Fraction(self.tau))))

    @property
    def log10_one_minus_gamma(self) -> float | None:
        """log10 (1 - gamma) of the lift, None before it."""
        if self.scan_p is None:
            return None
        m = self._one_minus_gamma()
        e = m.numerator.bit_length() - m.denominator.bit_length()
        return math.log10(m / Fraction(2) ** e) + e * math.log10(2.0)

    @property
    def log_bound_constant(self) -> float:
        """log of the lifted additive constant (1 - scan_p) c L = s L / (1 - tau)."""
        return math.log(self.scan_p) - math.log1p(-self.tau) + self.log_L

    def to_json_dict(self) -> dict:
        out = asdict(self)
        lift = {k: out.pop(k) for k in ("scan_p", "tau")}
        out["L"] = _encode_extended(self.L)
        out["log10_one_minus_rho"] = math.log10(self.one_minus_rho)
        if self.scan_p is not None:
            out["rgs"] = {**lift, "c": self.c, "gamma": self.gamma,
                          "bound_constant": _encode_extended(
                              _exp_sat(self.log_bound_constant)),
                          "log10_one_minus_gamma": self.log10_one_minus_gamma}
        return out


@dataclass(frozen=True)
class NoCertificate:
    """Outcome value when no drift certificate can be issued."""

    reason: str
    r_hat: float | None = None
    q_hat: float | None = None

    def to_json_dict(self) -> dict:
        return {"certificate": None, "reason": self.reason,
                "r_hat": _encode_extended(self.r_hat),
                "q_hat": _encode_extended(self.q_hat)}


def _one_minus_rho(r_hat: float, q_hat: float) -> float:
    """1 - rho* = (q/2)(1 - u)^2 with u = sqrt((r + 1)/2), and 1 - u
    formed as ((1 - r)/2) / (1 + u)."""
    u = math.sqrt(0.5 * (r_hat + 1.0))
    return 0.5 * q_hat * (0.5 * (1.0 - r_hat) / (1.0 + u)) ** 2


def _one_minus_up(m: Fraction) -> float:
    """The smallest float64 at least 1 - m."""
    g = float(1 - m)
    return math.nextafter(g, 2.0) if 1 - Fraction(g) > m else g


def _excess(fam: BivariateFamily, z: float, delta: float,
            x0: int) -> tuple[np.ndarray, np.ndarray]:
    """eps(x) for x = 1..N from fam's p and q, and an upper bound of
    eps(x) + delta, at most 0 beyond x0 exactly where eps(x) <= -delta:
    the float bound, or 0 on a table's row that holds exactly. Rows are
    decided from the top down, and below the first that fails none is."""
    up = z - 1.0                            # exact for 1 < z < 2
    rise, fall = fam.p * up, fam.q * (up / z)
    eps, room = rise - fall, _FILTER * (1.0 + _log_size(fam)) * (rise + fall)
    upper = eps + room + delta
    lo = max(x0, 1)                         # row 1 is never decided exactly
    xs = np.flatnonzero(upper[lo:] > 0.0) + lo + 1
    if xs.size and fam.spec.kind == "table":
        upper[xs[_exact_below(fam.spec, fam.N, xs, z, delta)] - 1] = 0.0
    return eps, upper


def _log_size(fam: BivariateFamily) -> float:
    """s: the largest |log| fam stores plus |log| of the spec's top weight,
    which is log retained_mass less the top's stored log and within 746
    of 0 (the cap where the mass overflows float64)."""
    top = math.log(fam.retained_mass) + max(fam.log_a.max(), fam.log_b.max())
    return max(np.abs(fam.log_a).max(), np.abs(fam.log_b[:-1]).max()) + min(abs(top), 746.0)


def _exact_below(spec: SequenceSpec, N: int, xs: np.ndarray, z: float,
                 delta: float) -> np.ndarray:
    """Whether eps(x) <= -delta holds exactly on the rising rows xs >= 2 of
    the table spec's truncation at N, from the top row down until one fails.
    Rows K < x < N all take row K + 1's value; row N has no up-move."""
    K, r, zf = _tail_start(spec), Fraction(spec.tail_ratio), Fraction(z)
    up, d = zf - 1, Fraction(delta)

    def w(tab, i):
        n = len(tab)
        return Fraction(tab[i - 1]) if i <= n else Fraction(tab[-1]) * r ** (i - n)

    def below(x, top):      # eps(x) pi_X(x) = t_x (z - 1) - t_(x-1) (1 - 1/z)
        a0, a1, b0 = w(spec.a_table, x - 1), w(spec.a_table, x), w(spec.b_table, x - 1)
        b1 = 0 if top else w(spec.b_table, x)       # t_i = a_i b_i / (a_i + b_i)
        return (a1 * b1 / (a1 + b1) - a0 * b0 / (a0 + b0) / zf) * up <= -d * (a1 + b0)

    held, i = np.zeros(xs.size, dtype=bool), xs.size
    while i > 0:            # from the top row down, until one fails
        x = int(xs[i - 1])
        lo = int(np.searchsorted(xs, K + 1)) if K < x < N else i - 1
        if not below(min(x, K + 1), x == N):
            break
        held[lo:i], i = True, lo
    return held


def find_drift_certificate(fam: BivariateFamily):
    """The certificate at the optimal base z* = sqrt(2 / (r_hat + 1)),
    with r_hat and q_hat from tail_limits(fam.spec), found on the head
    family; it reads only fam.spec and fam.N, and records N = fam.N.

    Returns a DriftCertificate, or a NoCertificate value when the tail
    limits fire a divergence flag, delta underflows, or z* rounds to 1.0
    in float64. x0 is the largest state not decided at most -delta, at
    least 1 and at most K, so the drift bound holds beyond it by
    construction, at every state of the untruncated chain."""
    return _search(fam.spec, fam.N)[0]


def _search(spec: SequenceSpec, N: int) -> tuple:
    """find_drift_certificate's outcome for spec at N, and the head
    family it was found on (None where the search stops)."""
    lim = tail_limits(spec)
    r_hat, q_hat = lim.r_hat, lim.q_hat
    fired = [name for name, f in divergence_flags(lim).items() if f]
    delta, z = _one_minus_rho(r_hat, q_hat), math.sqrt(2.0 / (r_hat + 1.0))
    for stop, reason in (    # the search's only stops, in this order
            (fired, f"the tail limits fire {', '.join(fired)}: no geometric drift"),
            (not delta >= sys.float_info.min,
             f"1 - rho = (q_hat/2)(1 - sqrt((r_hat + 1)/2))^2 = {delta:.3g} "
             f"underflows float64 (q_hat = {q_hat:.3g})"),
            (z == 1.0, f"z* = sqrt(2 / (r_hat + 1)) rounds to 1.0 in float64 "
                       f"(r_hat = {r_hat!r}): V = z^x is constant")):
        if stop:
            return NoCertificate(reason=reason, r_hat=r_hat, q_hat=q_hat), None
    head = build_family(spec, _tail_start(spec) + 3)   # rows to K + 2 untruncated
    eps, upper = _excess(head, z, delta, 1)
    above = np.flatnonzero(upper[1:] > 0.0)   # indices for x = 2..K+3
    x0 = int(above[-1] + 2) if above.size else 1
    # E[V(X_1) | x] = z^x (1 + eps(x))
    log_L = float(np.max(np.arange(1, x0 + 1) * math.log(z) + np.log1p(eps[:x0])))
    return DriftCertificate(z=z, rho=_one_minus_up(Fraction(delta)), log_L=log_L,
                            x0=x0, r_hat=r_hat, q_hat=q_hat, N=N), head


def admissible_c_interval(cert: DriftCertificate, scan_p: float) -> tuple[float, float]:
    """Open interval of lift constants c for the given scan probability."""
    check_scan_p(scan_p)
    lo = scan_p / (1.0 - scan_p)
    hi = scan_p / (cert.rho * (1.0 - scan_p))
    return lo, hi


def lift_to_rgs(cert: DriftCertificate, scan_p: float,
                c: float | None = None) -> DriftCertificate:
    """cert lifted to the random-scan chain at scan_p from its marginal
    constants alone. When c is omitted, tau = 1 - sqrt(1 - delta) and c is
    the geometric mean of the admissible interval; a supplied c gives
    tau = 1 - lo/c, to its float64 resolution, and one outside the open
    interval raises COutOfRange.
    """
    lo, hi = admissible_c_interval(cert, scan_p)
    delta = cert.one_minus_rho
    if c is None:
        tau = -math.expm1(0.5 * math.log1p(-delta))
    else:
        c = float(c)
        tau = (c - lo) / c
        if not (lo < c < hi and 0.0 < tau < delta):
            raise COutOfRange(f"c = {c!r} outside admissible interval ({lo!r}, {hi!r})")
    return replace(cert, scan_p=scan_p, tau=tau)


@dataclass(frozen=True)
class DriftReport:
    """A certificate checked on the marginal rows x = 1..N, lifted or not.

    max_violation is the largest excess of the one-step expectation over
    the certified bound, as a fraction of delta, at the row worst_state;
    the certificate holds when it is at most 0. checked is N.
    """

    max_violation: float
    holds: bool
    worst_state: int
    checked: int


def verify_drift(cert: DriftCertificate, fam: BivariateFamily) -> DriftReport:
    """Check a certificate's drift inequality at every row of fam, in the
    excess form of the module docstring; a lifted one holds where its
    marginal rows do, so it is checked on them."""
    delta = cert.one_minus_rho
    x = np.arange(1, min(cert.x0, fam.N) + 1)
    excess = _excess(fam, cert.z, delta, cert.x0)[1]
    with np.errstate(over="ignore"):
        excess[:cert.x0] -= np.exp(cert.log_L - x * math.log(cert.z))
    k = int(np.argmax(excess))
    return DriftReport(max_violation=float(excess[k]) / delta,
                       holds=bool(excess[k] <= 0.0), worst_state=k + 1, checked=fam.N)


def certify(spec: SequenceSpec, N: int = 200, scan_p: float | None = None):
    """spec's marginal certificate, recording N and lifted to the random
    scan when scan_p is given, that verify_drift accepts on the head
    family, and so on the truncation at N and every other; or a
    NoCertificate whose reason names the step that stopped: the search (a
    fired divergence flag, delta underflowing or z* rounding to 1.0) or a
    verification. No family at N is built.
    Before the search, an N below 2 raises DegenerateTruncation, as
    build_family does, and then a scan_p outside (0, 1) raises
    BadScanProbability."""
    N = _check_N(N)
    if scan_p is not None:
        check_scan_p(scan_p)
    cert, head = _search(spec, N)
    if isinstance(cert, NoCertificate):
        return cert
    chain = "marginal"
    if scan_p is not None:
        cert, chain = lift_to_rgs(cert, scan_p), "lifted"
    if not verify_drift(cert, head).holds:
        return NoCertificate(reason=f"{chain} certificate fails verification",
                             r_hat=cert.r_hat, q_hat=cert.q_hat)
    return cert


__all__ = [
    "DriftCertificate", "NoCertificate", "DriftReport",
    "find_drift_certificate", "admissible_c_interval",
    "lift_to_rgs", "verify_drift", "certify",
]

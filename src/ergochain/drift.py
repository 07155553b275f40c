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
flag) the untruncated chain's p_x, q_x, beta_y and stay_y are constant.
The head family, the truncation at K + 3, has the untruncated rows up
to K + 2, so its row K + 1 and pairs (K + 1, K + 1) and (K + 2, K + 1)
stand for every state beyond K. The search and the check run on it and
keep x0 <= K, so the certificate holds for the untruncated chain, and
every field but N is the same at every N. It holds on each truncation
too, whose rows are the untruncated chain's except row N: there p_N = 0
lowers the marginal excess, and beta_N = 0 makes G(N)/V(N) = 1, so the
lifted excess at (N, N) is at most that marginal excess (both lift
terms below are at most 0); the pair (N, N - 1) reads the untruncated
stay_y(N - 1).

eps(x) is compared with -delta with its rounding bound, (4 + 12 s)
eps64 (p_x (z - 1) + q_x (1 - 1/z)), and no other tolerance. p_x and
q_x are read from the spec's logs shifted by the largest alone
(_rows), not from the family's: they are ratios of the weights, so the
family's second shift, by the log of its mass, cancels from them in
exact arithmetic, and kept in it would round every log at its size,
about log 2n with n unit entries and growing with N (with 10^4 unit
entries the family's float excess is off by 4.06 eps64 (p_x (z - 1) +
q_x (1 - 1/z)) against 50 digits, the rows' by 0.07). 4 eps64 is the
excess's own rounding with p_x and q_x accurate to about an ulp, as
they are where the spec's logs are of order one. s is the largest
|log a_i| or |log b_i| the spec gives the rows: a log the rows store
is off by up to about 3 s eps64 (the spec's rounding and the shift by
the largest log), p_x and q_x move by up to 3 times that, and forming
them from the logs adds about 2 s eps64. (On table((e^B, 1), (e^-B,
1), r) with B up to 700, p_x and q_x are off by at most 0.76 s eps64
against 50 digits from the spec's exact ratios.) So on the head rows
the bound is about (4 + 12 s) 2.7 eps64 / (1 - r_hat) of |eps(x)| in
the tail, and on a truncation at large N it grows with the logs there
(geometric's p_x at N = 10^6 are within 4.4e-11 of the head's,
relative, against 12 s eps64 = 2.7e-9). The tail's exact
excess is -2 (2 + 1/u) delta <= -6 delta, so every spec whose limits
pass the ratio test is certified, except where delta underflows
float64's normal range or the tail's excess is not resolved below
-delta: z* rounds to 1 (r_hat within 5 ulps of 1) and V = z^x is
constant, or the tail row's rounding exceeds its five delta of slack
(1 - r_hat below about 3.2 (4 + 12 s) eps64: r_hat within 24 ulps of
1 for table((1,), (1,), r_hat), within about 6e-12 of 1 for tables with
entries near e^+-700). These are refused with that reason; a spec whose
limits fire a divergence flag (subgeo.divergence_flags) has no
geometric drift, and the refusal names the flags. These are the only
refusals, and drift's only exit 3.

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
rounds to lo, and the rates a certificate states are the ones
verify_drift checks. One record, DriftCertificate, serves all three
chains (the deterministic scan's x-marginal is the marginal chain).

verify_drift checks the same excess form at every state of the family
it is given, at most 0 beyond x0 and at most L/V(x) up to it:
eps(x) + delta on the marginal chain, and on the random scan's 2N-1
staircase pairs, with w as above,

    (E W - gamma W) / ((1-s) c V(x)) = (c w - tau) G(y)/V(x)
                                       + (w + tau - delta) + eps(x) + delta,

where c w - tau and w + tau - delta are at most 0, and G(y)/V(x) is
1 + beta_y (z - 1) at (y, y) and 1 - (a_y / pi_Y(y))(1 - 1/z) at
(y + 1, y). delta there is the certificate's one_minus_rho: the closed
form, or 1 - rho where a hand-set rho claims more. certify, the one path
that issues a certificate, takes the spec and N and builds no family
at N: it builds the head family once and runs the search, the lift
when a scan probability is given, and one verification on that family,
in that order; a lifted certificate's verification checks the marginal
excess at every state too.

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
from .family import BivariateFamily, _check_N, _exp_sat, build_family, staircase_xy
from .spec import (SequenceSpec, _encode_extended, _tail_start, check_scan_p,
                   tail_limits)
from .subgeo import divergence_flags

# the rounding bound of eps(x), relative to p_x (z - 1) + q_x (1 - 1/z):
# _ROUNDING plus _LOG_ROUNDING times the size s of the spec's logs
_ROUNDING = 4.0 * sys.float_info.epsilon
_LOG_ROUNDING = 12.0 * sys.float_info.epsilon


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


def _excess(fam: BivariateFamily, z: float) -> tuple[np.ndarray, np.ndarray]:
    """eps(x) and its rounding bound, for x = 1..N, from _rows(fam)."""
    rows, s = _rows(fam)
    up = z - 1.0                            # exact for 1 < z < 2
    rise, fall = rows.p * up, rows.q * (up / z)
    return rise - fall, (_ROUNDING + _LOG_ROUNDING * s) * (rise + fall)


def _rows(fam: BivariateFamily) -> tuple[BivariateFamily, float]:
    """fam's chain with the spec's logs shifted by the largest alone, and
    s, the largest |log a_i| (i <= N) and |log b_i| (i < N) the spec gives.

    p and q are ratios of the weights, so fam's second shift, by the log
    of its mass, cancels from them in exact arithmetic; these rows leave
    it out, and it rounds none of their logs. Their log_a and log_b are
    not log probabilities."""
    idx = np.arange(1, fam.N + 1)
    la = np.array(fam.spec.log_a(idx), dtype=float)
    lb = np.array(fam.spec.log_b(idx), dtype=float)
    lb[-1] = -np.inf
    s = float(max(np.abs(la).max(), np.abs(lb[:-1]).max()))
    top = max(la.max(), lb.max())
    return BivariateFamily(spec=fam.spec, N=fam.N, log_a=la - top, log_b=lb - top), s


def find_drift_certificate(fam: BivariateFamily):
    """The certificate at the optimal base z* = sqrt(2 / (r_hat + 1)),
    with r_hat and q_hat from tail_limits(fam.spec), found on the head
    family; it reads only fam.spec and fam.N, and records N = fam.N.

    Returns a DriftCertificate, or a NoCertificate value when the tail
    limits fire a divergence flag, delta underflows, or z* is so close
    to 1 that the tail's excess is not resolved below -delta. The
    threshold x0 is the largest state whose excess (with its rounding
    bound) is above -delta, at least 1 and at most K, so the drift bound
    holds beyond it by construction, at every state of the untruncated
    chain.
    """
    return _search(fam.spec, fam.N)[0]


def _search(spec: SequenceSpec, N: int) -> tuple:
    """find_drift_certificate's outcome for spec at N, and the head
    family it was found on (None where the search stops)."""
    lim = tail_limits(spec)
    r_hat, q_hat = lim.r_hat, lim.q_hat
    fired = [name for name, f in divergence_flags(lim).items() if f]
    if fired:
        return NoCertificate(
            reason=f"the tail limits fire {', '.join(fired)}: no geometric drift",
            r_hat=r_hat, q_hat=q_hat), None
    delta = _one_minus_rho(r_hat, q_hat)
    if not delta >= sys.float_info.min:
        return NoCertificate(
            reason=f"1 - rho = (q_hat/2)(1 - sqrt((r_hat + 1)/2))^2 = {delta:.3g} "
                   f"underflows float64 (q_hat = {q_hat:.3g})",
            r_hat=r_hat, q_hat=q_hat), None

    z = math.sqrt(2.0 / (r_hat + 1.0))
    K = _tail_start(spec)
    head = build_family(spec, K + 3)     # rows up to K + 2 are the untruncated chain's
    eps, bound = _excess(head, z)
    above = np.flatnonzero((eps + bound)[1:] > -delta)   # indices for x = 2..K+3
    x0 = int(above[-1] + 2) if above.size else 1
    if x0 > K:
        return NoCertificate(
            reason=f"z* = sqrt(2 / (r_hat + 1)) rounds to {z!r} in float64 "
                   f"(r_hat = {r_hat!r}): the excess of V = z^x beyond x = {K} "
                   f"is not resolved below -delta",
            r_hat=r_hat, q_hat=q_hat), None
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


def _lift_terms(s: float, tau: float, delta: float) -> tuple[float, float]:
    """The two terms the lift at scan probability s with c = lo / (1 - tau)
    adds to eps(x) + delta: c w - tau, the coefficient of G(y)/V(x), and
    w + tau - delta. Both are at most 0; min keeps rounding from lifting
    them above it."""
    lo = s / (1.0 - s)
    a1, a2 = delta - tau, tau * (1.0 - tau) / lo
    return min(0.0, lo * a1 / (1.0 - tau) - tau), min(0.0, a2 - a1)


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
    """Exhaustive verification outcome over the truncated support.

    max_violation is the largest excess of the one-step expectation over
    the certified bound, as a fraction of delta; the certificate holds
    when it is at most 0.
    """

    max_violation: float
    holds: bool
    worst_state: object
    checked: int


def verify_drift(cert: DriftCertificate, fam: BivariateFamily) -> DriftReport:
    """Check a certificate's drift inequality at every support state, in
    the excess form of the module docstring.

    Every certificate is checked on the marginal chain (x = 1..N); a
    lifted one also on the random scan's 2N-1 staircase pairs, and its
    max_violation and worst_state are the lift's. So a certificate holds
    only where every rate it states holds.
    """
    delta = cert.one_minus_rho
    x = np.arange(1, fam.N + 1)
    eps, bound = _excess(fam, cert.z)
    excess = eps + bound + delta
    with np.errstate(over="ignore"):
        excess[:cert.x0] -= np.exp(cert.log_L - x[:cert.x0] * math.log(cert.z))
    holds, y = bool(np.max(excess) <= 0.0), None
    if cert.scan_p is not None:
        g_term, slack = _lift_terms(cert.scan_p, cert.tau, delta)
        x, y = staircase_xy(fam.N)
        up = cert.z - 1.0
        G_over_V = np.empty(2 * fam.N - 1)
        G_over_V[0::2] = 1.0 + fam.beta * up
        G_over_V[1::2] = 1.0 - fam.stay_y[:-1] * (up / cert.z)
        excess = g_term * G_over_V + slack + excess[x - 1]
    k = int(np.argmax(excess))
    worst = int(x[k]) if y is None else (int(x[k]), int(y[k]))
    return DriftReport(max_violation=float(excess[k]) / delta,
                       holds=holds and bool(excess[k] <= 0.0), worst_state=worst,
                       checked=len(excess))


def certify(spec: SequenceSpec, N: int = 200, scan_p: float | None = None):
    """spec's marginal certificate, recording N and lifted to the random
    scan when scan_p is given, that verify_drift accepts on the head
    family, and so on the truncation at N and every other; or a
    NoCertificate whose reason names the step that stopped: the search (a
    fired divergence flag, delta underflowing or the tail's excess not
    resolved below -delta) or a verification. No family at N is built.
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
    if scan_p is not None:      # the lift's verification checks the marginal excess too
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

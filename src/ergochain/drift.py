"""Geometric drift certificates for the marginal and random-scan chains.

The test function is V(x) = z^x with z > 1. One step of the birth-death
marginal multiplies V by

    coefficient(x, z) = p_x (z - 1) + q_x (1/z - 1) + 1,

so a certificate consists of a base z, a rate rho < 1 dominating the
coefficient for all x beyond a threshold x0, and the constant
L = max_{x <= x0} E[V(X_1) | X_0 = x], giving

    E[V(X_1) | X_0 = x] <= rho V(x) + L        for every x.

The tail constants r_hat = limsup p_x / q_x and q_hat = liminf q_x are
the spec's exact tail limits, spec.tail_limits. For z < 2 / (r + 1) the
certified rate is

    rho(z) = 1 + (q/2)(z - 1)((r + 1)/2 - 1/z),

which is smallest at z* = sqrt(2 / (r + 1)), inside (1, 2 / (r + 1)),
with rho* = 1 - (q/2)(1 - sqrt((r + 1)/2))^2. The certificate uses z*.
verify_drift accepts a log excess up to VERIFY_TOL, so a certificate is
issued only when its margin -log rho* exceeds VERIFY_TOL; a smaller
margin proves nothing. That one rule refuses r_hat = 1 (power-law),
q_hat = 0 (mixed-geometric, alternating) and every table whose tail
ratio r is within 1.1e-4 of one (its margin is at most about
(1 - r)^2 / 128). certify holds the lifted rate gamma to the same rule.

A certificate for the random-scan chain with scan probability s follows
by lifting: for any c strictly between s/(1-s) and s/(rho (1-s)),

    W(x, y) = V(x) + c G(y),   G(y) = ((a_y + z b_y) / (a_y + b_y)) z^y,
    gamma   = max{(1-s)(c rho + 1), s (1 + c) / c}  <  1,

and one random-scan step satisfies E W <= gamma W + (1-s) c L. One
record, DriftCertificate, serves all three chains (the deterministic
scan's x-marginal is the marginal chain); its lift fields scan_p, c and
gamma are None until lift_to_rgs sets them. Verification is exhaustive
over the truncated support: the one-step expectation of V (or W) is
taken through the banded kernel itself, build_Px or build_Prgs, with
kernels.log_expect, and both sides are compared in log space, so
certificates remain checkable when z^x overflows. certify runs search,
verification, lift and the lifted verification in that order; it is the
one path that issues a certificate.

A certificate proves a geometric rate for the chain truncated at N, not
for the infinite family, but its constants are the untruncated tail's,
so power-law, which has no geometric rate, is refused at every N.
Whether the family converges geometrically is classify's answer, read
from the tail limits alone: where certify refuses for want of margin,
a Geometric verdict carries no certificate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import BadZ, COutOfRange
from .family import BivariateFamily
from .kernels import build_Prgs, build_Px, log_expect, staircase_xy
from .spec import _encode_extended, check_scan_p, tail_limits

# the largest log excess verify_drift accepts; a certified rate must be
# below one by more than it
VERIFY_TOL = 1e-10


def drift_coefficient(p: float, q: float, z: float) -> float:
    """One-step multiplier of V(x) = z^x at up/down probabilities (p, q)."""
    if not (z > 1.0 and math.isfinite(z)):
        raise BadZ(f"z = {z!r} must be finite and exceed 1")
    return p * (z - 1.0) + q * (1.0 / z - 1.0) + 1.0


_LIFT = ("scan_p", "c", "gamma")


@dataclass(frozen=True)
class DriftCertificate:
    """Verified drift data for the marginal chain; lifted when scan_p is set."""

    z: float
    rho: float
    log_L: float
    x0: int
    r_hat: float
    q_hat: float
    N: int
    scan_p: float | None = None
    c: float | None = None
    gamma: float | None = None

    @property
    def L(self) -> float:
        return math.exp(self.log_L)

    @property
    def log_bound_constant(self) -> float:
        """log of the lifted additive constant (1 - scan_p) c L."""
        return math.log((1.0 - self.scan_p) * self.c) + self.log_L

    def to_json_dict(self) -> dict:
        out = asdict(self)
        lift = {k: out.pop(k) for k in _LIFT}
        out["L"] = _encode_extended(self.L)
        if self.scan_p is not None:
            out["rgs"] = {**lift, "bound_constant": _encode_extended(
                math.exp(self.log_bound_constant))}
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


def rho_bound(r_hat: float, q_hat: float, z: float) -> float:
    """The certified rate at base z for tail constants (r_hat, q_hat)."""
    return 1.0 + 0.5 * q_hat * (z - 1.0) * (0.5 * (r_hat + 1.0) - 1.0 / z)


def _unresolved(name: str, rate: float) -> str | None:
    """Why a certified rate is refused, or None when its margin -log rate
    is above VERIFY_TOL."""
    margin = -math.log(rate) + 0.0     # 0, not -0, at rate 1
    return None if margin > VERIFY_TOL else (
        f"margin -log {name} = {margin:.3g} is not above the verifier's "
        f"tolerance VERIFY_TOL = {VERIFY_TOL:g}")


def find_drift_certificate(fam: BivariateFamily):
    """The certificate at the optimal base z* = sqrt(2 / (r_hat + 1)),
    with r_hat and q_hat from tail_limits(fam.spec), for any N >= 2.

    Returns a DriftCertificate, or a NoCertificate value when the margin
    -log rho* is not above VERIFY_TOL. The threshold x0 is the largest
    index whose coefficient exceeds rho (at least 1), so the drift bound
    holds pointwise beyond it by construction.
    """
    lim = tail_limits(fam.spec)
    r_hat, q_hat = lim.r_hat, lim.q_hat
    z = math.sqrt(2.0 / (r_hat + 1.0))
    rho = rho_bound(r_hat, q_hat, z)
    reason = _unresolved("rho", rho)
    if reason is not None:
        return NoCertificate(reason=reason, r_hat=r_hat, q_hat=q_hat)

    coeff = drift_coefficient(fam.p, fam.q, z)
    violators = np.where(coeff[1:] > rho)[0]        # indices for x = 2..N
    x0 = int(violators[-1] + 2) if violators.size else 1
    log_V = np.arange(1, fam.N + 1) * math.log(z)
    log_L = float(np.max(log_expect(build_Px(fam), log_V)[:x0]))
    return DriftCertificate(z=z, rho=rho, log_L=log_L, x0=x0,
                            r_hat=r_hat, q_hat=q_hat, N=fam.N)


def admissible_c_interval(cert: DriftCertificate, scan_p: float) -> tuple[float, float]:
    """Open interval of lift constants c for the given scan probability."""
    check_scan_p(scan_p)
    lo = scan_p / (1.0 - scan_p)
    hi = scan_p / (cert.rho * (1.0 - scan_p))
    return lo, hi


def lift_to_rgs(cert: DriftCertificate, scan_p: float,
                c: float | None = None) -> DriftCertificate:
    """cert lifted to the random-scan chain at scan_p from its marginal
    constants alone. When c is omitted the geometric mean of the
    admissible interval is used; a supplied c outside the open interval
    raises COutOfRange.
    """
    lo, hi = admissible_c_interval(cert, scan_p)
    if c is None:
        c = math.sqrt(lo * hi)
    c = float(c)
    if not lo < c < hi:
        raise COutOfRange(f"c = {c!r} outside admissible interval ({lo!r}, {hi!r})")
    gamma = max((1.0 - scan_p) * (c * cert.rho + 1.0),
                scan_p * (1.0 + c) / c)
    if not (cert.rho < gamma < 1.0):
        raise COutOfRange(f"lift produced gamma = {gamma!r} outside (rho, 1)")
    return replace(cert, scan_p=scan_p, c=c, gamma=gamma)


@dataclass(frozen=True)
class DriftReport:
    """Exhaustive verification outcome over the truncated support.

    max_violation is the largest log excess of the one-step expectation
    over the certified bound; the certificate holds when it is at most
    VERIFY_TOL.
    """

    max_violation: float
    holds: bool
    worst_state: object
    checked: int


def _log_G(fam: BivariateFamily, log_z: float) -> np.ndarray:
    """log G(y) for y = 1..N with G(y) = ((a_y + z b_y)/(a_y + b_y)) z^y."""
    y = np.arange(1, fam.N + 1, dtype=float)
    return (np.logaddexp(fam.log_a, log_z + fam.log_b)
            - fam.log_piy + y * log_z)


def verify_drift(cert: DriftCertificate, fam: BivariateFamily) -> DriftReport:
    """Check a certificate's drift inequality at every support state.

    A certificate whose lift fields are None is checked on the marginal
    chain (x = 1..N), a lifted one on the random scan's 2N-1 staircase
    pairs, positioned by kernels.staircase_xy. The one-step expectation of
    the test function is taken through the chain's banded kernel with
    log_expect and compared with the certified bound in log space.
    """
    log_z = math.log(cert.z)
    if cert.scan_p is None:
        tm = build_Px(fam)
        x, y = np.arange(1, fam.N + 1), None
        log_W = x * log_z
        log_rate, log_const = math.log(cert.rho), cert.log_L
    else:
        tm = build_Prgs(fam, cert.scan_p)
        x, y = staircase_xy(fam.N)
        log_W = np.logaddexp(x * log_z, math.log(cert.c) + _log_G(fam, log_z)[y - 1])
        log_rate, log_const = math.log(cert.gamma), cert.log_bound_constant
    viol = log_expect(tm, log_W) - np.logaddexp(log_rate + log_W, log_const)
    k = int(np.argmax(viol))
    mv = float(viol[k])
    worst = int(x[k]) if y is None else (int(x[k]), int(y[k]))
    return DriftReport(max_violation=mv, holds=mv <= VERIFY_TOL,
                       worst_state=worst, checked=tm.n_states)


def certify(fam: BivariateFamily, scan_p: float | None = None):
    """The marginal certificate, lifted to the random scan when scan_p is
    given, that verify_drift accepts; or a NoCertificate whose reason
    names the step that stopped: the search, a verification, a lift
    float64 cannot represent (COutOfRange), or a lifted rate gamma whose
    margin is not above VERIFY_TOL. A scan_p outside (0, 1) raises
    BadScanProbability before the search."""
    if scan_p is not None:
        check_scan_p(scan_p)
    cert = find_drift_certificate(fam)
    if isinstance(cert, NoCertificate):
        return cert

    def refuse(reason):
        return NoCertificate(reason=reason, r_hat=cert.r_hat, q_hat=cert.q_hat)

    if not verify_drift(cert, fam).holds:
        return refuse("marginal certificate fails verification")
    if scan_p is None:
        return cert
    try:
        lifted = lift_to_rgs(cert, scan_p)
    except COutOfRange as exc:
        return refuse(f"lift to the random scan failed: {exc}")
    reason = _unresolved("gamma", lifted.gamma)
    if reason is not None:
        return refuse(reason)
    if not verify_drift(lifted, fam).holds:
        return refuse("lifted certificate fails verification")
    return lifted


__all__ = [
    "VERIFY_TOL",
    "DriftCertificate", "NoCertificate", "DriftReport", "drift_coefficient",
    "rho_bound", "find_drift_certificate", "admissible_c_interval",
    "lift_to_rgs", "verify_drift", "certify",
]

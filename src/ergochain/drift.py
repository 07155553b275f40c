"""Geometric drift certificates for the marginal and random-scan chains.

The test function is V(x) = z^x with z > 1. One step of the birth-death
marginal multiplies V by

    coefficient(x, z) = p_x (z - 1) + q_x (1/z - 1) + 1,

so a certificate consists of a base z, a rate rho < 1 dominating the
coefficient for all x beyond a threshold x0, and the constant
L = max_{x <= x0} E[V(X_1) | X_0 = x], giving

    E[V(X_1) | X_0 = x] <= rho V(x) + L        for every x.

Tail surrogates r_hat (a bound on p_x / q_x) and q_hat (a lower bound on
q_x) are max and min over the upper half of {2..N}, excluding the last
two indices where truncation distorts p; r_hat is formed from the
family's log_t so it stays finite where p and q underflow. For
z < 2 / (r + 1) the certified rate is

    rho(z) = 1 + (q/2)(z - 1)((r + 1)/2 - 1/z),

which is smallest at z* = sqrt(2 / (r + 1)), inside (1, 2 / (r + 1)),
with rho* = 1 - (q/2)(1 - sqrt((r + 1)/2))^2. The certificate uses z*.
When r_hat is 0.99 or larger the tail evidence cannot separate the
family from the critical case and no certificate is issued.

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
for the infinite family: the power-law family, which has no geometric
rate, is certified at N = 50 and N = 200 (r_hat = 0.98992, just under
0.99, rho = 0.9999992) and refused from N = 300 on. Whether the family
converges geometrically is classify's answer, which also reads the
declared limits and the divergence statistics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import BadZ, COutOfRange, IndexOutOfRange
from .family import BivariateFamily, _exp_sat
from .kernels import build_Prgs, build_Px, log_expect, staircase_xy
from .spec import _encode_extended, check_scan_p

# Tail ratio estimates at or above this are treated as critical.
R_BORDERLINE = 0.99


def drift_coefficient(p: float, q: float, z: float) -> float:
    """One-step multiplier of V(x) = z^x at up/down probabilities (p, q)."""
    if not (z > 1.0 and math.isfinite(z)):
        raise BadZ(f"z = {z!r} must be finite and exceed 1")
    return p * (z - 1.0) + q * (1.0 / z - 1.0) + 1.0


def tail_surrogates(fam: BivariateFamily) -> tuple[float, float]:
    """(r_hat, q_hat): max p_x/q_x and min q_x over the upper half of
    {2..N} with the truncation-distorted indices N-1 and N excluded.

    p_x / q_x = t_x / t_{x-1} with t the family's edge conductance, so
    r_hat is taken from fam.log_t and stays finite where p and q underflow.
    """
    lo = max(2, fam.N // 2)
    hi = fam.N - 2
    if hi < lo:
        raise IndexOutOfRange(f"N = {fam.N} leaves no tail window")
    r_hat = _exp_sat(float(np.max(np.diff(fam.log_t)[lo - 2:hi - 1])))
    q_hat = float(np.min(fam.q[lo - 1:hi]))
    return r_hat, q_hat


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


def certificate_from_json_dict(d: dict) -> DriftCertificate:
    """The DriftCertificate that to_json_dict wrote."""
    lift = d.get("rgs") or dict.fromkeys(_LIFT)
    return DriftCertificate(**{f.name: (lift if f.name in _LIFT else d)[f.name]
                               for f in fields(DriftCertificate)})


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
    """The certified rate at base z for tail surrogates (r_hat, q_hat)."""
    return 1.0 + 0.5 * q_hat * (z - 1.0) * (0.5 * (r_hat + 1.0) - 1.0 / z)


def find_drift_certificate(fam: BivariateFamily):
    """The certificate at the optimal base z* = sqrt(2 / (r_hat + 1)).

    Returns a DriftCertificate or a NoCertificate value. The threshold x0
    is the largest index whose coefficient exceeds rho (at least 1), so
    the drift bound holds pointwise beyond it by construction.
    """
    r_hat, q_hat = tail_surrogates(fam)
    if r_hat >= R_BORDERLINE:
        return NoCertificate(
            reason=f"tail ratio estimate {r_hat:.6g} is not below {R_BORDERLINE}",
            r_hat=r_hat, q_hat=q_hat)
    if not q_hat > 0.0:
        return NoCertificate(reason="tail down-probability estimate is zero",
                             r_hat=r_hat, q_hat=q_hat)
    z = math.sqrt(2.0 / (r_hat + 1.0))
    rho = rho_bound(r_hat, q_hat, z)
    if not rho < 1.0:
        return NoCertificate(reason="no z with certified rate below one",
                             r_hat=r_hat, q_hat=q_hat)

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
    zero up to 1e-10.
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
    return DriftReport(max_violation=mv, holds=mv <= 1e-10,
                       worst_state=worst, checked=tm.n_states)


def certify(fam: BivariateFamily, scan_p: float | None = None):
    """The marginal certificate, lifted to the random scan when scan_p is
    given, that verify_drift accepts; or a NoCertificate whose reason
    names the step that stopped: the search, a verification, or a lift
    float64 cannot represent (COutOfRange). A scan_p outside (0, 1)
    raises BadScanProbability before the search."""
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
    if not verify_drift(lifted, fam).holds:
        return refuse("lifted certificate fails verification")
    return lifted


__all__ = [
    "R_BORDERLINE",
    "DriftCertificate", "NoCertificate", "DriftReport",
    "drift_coefficient", "tail_surrogates",
    "rho_bound", "find_drift_certificate", "admissible_c_interval",
    "lift_to_rgs", "verify_drift", "certify",
    "certificate_from_json_dict",
]

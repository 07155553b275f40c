"""Drift coefficients, certificate search, and the random-scan lift.

The lift arithmetic is pinned against hand-computed constants for a
synthetic certificate, so the formulas are checked independently of the
search that normally produces their inputs.
"""

import math
import warnings

import numpy as np
import pytest

from ergochain import (
    BadScanProbability,
    BadZ,
    COutOfRange,
    DriftCertificate,
    IndexOutOfRange,
    NoCertificate,
    admissible_c_interval,
    build_family,
    drift_coefficient,
    find_drift_certificate,
    lift_to_rgs,
    power_law,
    px_drift_coefficient,
    verify_drift,
)
from ergochain.drift import log_PxV, rho_bound, tail_surrogates
from ergochain.kernels import build_Prgs, log_expect

COEF_GEO_Z13_X10 = 0.960187767622529   # frozen direct evaluation
Z_UPPER_GEO = 1.4621171572600098       # 2 / (e^{-1} + 1)


def test_coefficient_tends_to_one_as_z_shrinks():
    base = drift_coefficient(0.12, 0.33, 1.0 + 1e-12)
    assert base == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("z", [1.0, 0.5, -2.0, float("inf"), float("nan")])
def test_coefficient_rejects_bad_z(z):
    with pytest.raises(BadZ):
        drift_coefficient(0.1, 0.2, z)


def test_px_coefficient_geometric(fam):
    f = fam("geometric", 50)
    got = px_drift_coefficient(f, 1.3, 10)
    assert got == pytest.approx(COEF_GEO_Z13_X10, rel=1e-13)
    # same thing assembled by hand from the conditionals
    direct = f.p[9] * 0.3 + f.q[9] * (1.0 / 1.3 - 1.0) + 1.0
    assert got == pytest.approx(direct, rel=1e-14)
    with pytest.raises(IndexOutOfRange):
        px_drift_coefficient(f, 1.3, 1)
    with pytest.raises(IndexOutOfRange):
        px_drift_coefficient(f, 1.3, 51)


def test_balanced_walk_never_contracts():
    # p = q makes the coefficient 1 + p (z + 1/z - 2) > 1 for any z > 1
    for z in (1.05, 1.3, 1.8):
        assert drift_coefficient(0.3, 0.3, z) > 1.0


def test_tail_surrogates_geometric(fam):
    r_hat, q_hat = tail_surrogates(fam("geometric", 200))
    assert r_hat == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert q_hat == pytest.approx(0.33065155633076704, rel=1e-12)


def test_log_PxV_matches_direct_expectation(fam):
    f = fam("geometric", 30)
    z = 1.1
    got = np.exp(log_PxV(f, math.log(z)))
    x = np.arange(1, 31)
    direct = (f.p * z ** (x + 1) + f.q * z ** (x - 1)
              + (1.0 - f.p - f.q) * z ** x)
    assert np.allclose(got, direct, rtol=1e-12)


def test_certificate_found_for_geometric(fam):
    f = fam("geometric", 200)
    cert = find_drift_certificate(f)
    assert isinstance(cert, DriftCertificate)
    assert cert.rho < 1.0
    assert 1.0 < cert.z < Z_UPPER_GEO
    assert cert.r_hat == pytest.approx(math.exp(-1.0), rel=1e-12)
    rep = verify_drift(cert, f)
    assert rep.holds
    assert rep.checked == 200
    assert rep.max_violation <= 1e-10


def test_tampered_certificate_fails(fam):
    import dataclasses
    f = fam("geometric", 100)
    cert = find_drift_certificate(f)
    bad = dataclasses.replace(cert, rho=cert.rho / 2.0)
    rep = verify_drift(bad, f)
    assert not rep.holds
    assert rep.max_violation > 0.0


def test_no_certificate_for_heavy_tail():
    f = build_family(power_law(2.0), 10_000)
    out = find_drift_certificate(f)
    assert isinstance(out, NoCertificate)
    assert out.r_hat >= 0.999


def test_certificate_uses_optimal_z(fam):
    f = fam("geometric", 200)
    cert = find_drift_certificate(f)
    assert cert.z == math.sqrt(2.0 / (cert.r_hat + 1.0))
    assert cert.rho == rho_bound(cert.r_hat, cert.q_hat, cert.z)
    for step in (1.0 - 1e-3, 1.0 + 1e-3):
        assert rho_bound(cert.r_hat, cert.q_hat, cert.z * step) >= cert.rho


@pytest.mark.parametrize("name", ["alternating", "mixed-geometric"])
def test_tail_ratio_finite_where_p_and_q_underflow(fam, name):
    # p and q both underflow in this tail, so a plain p/q would be 0/0
    f = fam(name, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_hat, _ = tail_surrogates(f)
    assert r_hat == pytest.approx(math.exp(-2.0), rel=1e-9)


# -- random-scan lift --------------------------------------------------------


def _synthetic_cert():
    return DriftCertificate(z=1.3, rho=0.9602, log_L=0.0, x0=1,
                            r_hat=0.5, q_hat=0.3, N=100)


def test_admissible_interval_frozen_constants():
    lo, hi = admissible_c_interval(_synthetic_cert(), 0.5)
    assert lo == pytest.approx(1.0, abs=0)
    assert hi == pytest.approx(1.0414496979795875, rel=1e-13)


def test_lift_frozen_constants():
    lifted = lift_to_rgs(_synthetic_cert(), 0.5)
    assert lifted.c == pytest.approx(1.0205144281094645, rel=1e-13)
    assert lifted.gamma == pytest.approx(0.9899489769353541, rel=1e-13)
    assert lifted.base.rho < lifted.gamma < 1.0


@pytest.mark.parametrize("c", [1.0, 1.0414496979795875, 0.5, 2.0])
def test_lift_rejects_inadmissible_c(c):
    with pytest.raises(COutOfRange):
        lift_to_rgs(_synthetic_cert(), 0.5, c=c)


def test_lift_degrades_as_scan_concentrates():
    cert = _synthetic_cert()
    g = [lift_to_rgs(cert, p).gamma for p in (0.5, 0.7, 0.9)]
    assert g[0] < g[1] < g[2] < 1.0


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5])
def test_interval_rejects_degenerate_scan(p):
    with pytest.raises(BadScanProbability):
        admissible_c_interval(_synthetic_cert(), p)


def test_lifted_certificate_verifies_on_support(fam):
    f = fam("geometric", 100)
    cert = find_drift_certificate(f)
    lifted = lift_to_rgs(cert, 0.5)
    rep = verify_drift(lifted, f)
    assert rep.holds
    assert rep.checked == 2 * 100 - 1
    assert lifted.gamma > cert.rho


@pytest.mark.parametrize("name", ["power-law", "geometric", "mixed-geometric",
                                  "alternating"])
@pytest.mark.parametrize("scan_p", [0.1, 0.5, 0.9])
def test_kernel_lift_expectation_matches_reference(fam, name, scan_p):
    # Reference: the analytic one-step expectation of W = V + c G,
    #   s (1 + c) G(y) + (1 - s)(V(x) + c PxV(x)),
    # since the x-update averages V over X | Y = y, which is G(y), and the
    # y-update averages G over Y | X = x, which is one marginal step of V.
    f = fam(name, 200)
    base = DriftCertificate(z=1.05, rho=0.99, log_L=0.0, x0=1, r_hat=0.5,
                            q_hat=0.1, N=200)
    cert = lift_to_rgs(base, scan_p)
    s, c, z = scan_p, cert.c, base.z
    states = f.support_states()
    x = np.array([st[0] for st in states])
    y = np.array([st[1] for st in states])
    G = (f.a + z * f.b) / (f.a + f.b) * z ** np.arange(1, f.N + 1)
    xs = np.arange(1, f.N + 1)
    PxV = (f.p * z ** (xs + 1) + f.q * z ** (xs - 1)
           + (1.0 - f.p - f.q) * z ** xs)
    ref = s * (1.0 + c) * G[y - 1] + (1.0 - s) * (z ** x + c * PxV[x - 1])
    log_W = np.log(z ** x + c * G[y - 1])
    got = log_expect(build_Prgs(f, scan_p), log_W)
    assert np.allclose(got, np.log(ref), rtol=0, atol=1e-12)


def test_certificate_json_fields(fam):
    cert = find_drift_certificate(fam("geometric", 100))
    d = cert.to_json_dict()
    assert {"z", "rho", "L", "x0", "r_hat", "q_hat"} <= set(d)
    lifted = lift_to_rgs(cert, 0.25)
    d2 = lifted.to_json_dict()
    assert d2["rgs"]["scan_p"] == 0.25
    assert {"c", "gamma", "bound_constant"} <= set(d2["rgs"])

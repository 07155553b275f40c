"""Drift coefficients, certificate search, and the random-scan lift.

The lift arithmetic is pinned against hand-computed constants for a
synthetic certificate, so the formulas are checked independently of the
search that normally produces their inputs.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergochain import (
    BadScanProbability,
    BadZ,
    COutOfRange,
    DriftCertificate,
    NoCertificate,
    admissible_c_interval,
    build_family,
    classify,
    drift_coefficient,
    example_spec,
    find_drift_certificate,
    lift_to_rgs,
    power_law,
    table,
    tail_limits,
    verify_drift,
)
from ergochain.drift import (
    VERIFY_TOL,
    certify,
    rho_bound,
)
from ergochain.kernels import build_Prgs, build_Px, log_expect

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
    got = drift_coefficient(f.p[9], f.q[9], 1.3)     # x = 10
    assert got == pytest.approx(COEF_GEO_Z13_X10, rel=1e-13)
    # same thing assembled by hand from the conditionals
    direct = f.p[9] * 0.3 + f.q[9] * (1.0 / 1.3 - 1.0) + 1.0
    assert got == pytest.approx(direct, rel=1e-14)


def test_balanced_walk_never_contracts():
    # p = q makes the coefficient 1 + p (z + 1/z - 2) > 1 for any z > 1
    for z in (1.05, 1.3, 1.8):
        assert drift_coefficient(0.3, 0.3, z) > 1.0


def test_tail_surrogates_geometric():
    lim = tail_limits(example_spec("geometric"))
    assert lim.r_hat == math.exp(-1.0)
    assert lim.q_hat == pytest.approx(0.33065155633076704, rel=1e-12)


def test_log_PxV_matches_direct_expectation(fam):
    f = fam("geometric", 30)
    z = 1.1
    x = np.arange(1, 31)
    got = np.exp(log_expect(build_Px(f), x * math.log(z)))
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
    assert out.r_hat == 1.0


@pytest.mark.parametrize("N", [2, 10, 30, 49, 50, 200])
def test_no_certificate_for_truncated_power_law(fam, N):
    # truncated at N the chain's own ratios p_x / q_x stay below one, but
    # the tail's limit r_hat = 1 leaves rho = 1, and the family has no
    # geometric rate
    out = certify(fam("power-law", N))
    assert isinstance(out, NoCertificate)
    assert out.r_hat == 1.0
    assert out.reason == ("margin -log rho = 0 is not above the verifier's "
                          "tolerance VERIFY_TOL = 1e-10")


@pytest.mark.parametrize("name", ["power-law", "geometric", "mixed-geometric",
                                  "alternating"])
@pytest.mark.parametrize("N", [10, 50, 200])
@pytest.mark.parametrize("scan_p", [None, 0.5])
def test_surrogates_are_the_tail_estimates(fam, name, N, scan_p):
    spec = example_spec(name)
    est = tail_limits(spec)
    cert = certify(fam(name, N), scan_p)
    quantities = classify(spec, N, scan_p).quantities
    assert (cert.r_hat, cert.q_hat) == (est.r_hat, est.q_hat)
    assert (quantities["r_hat"], quantities["q_hat"]) == (est.r_hat, est.q_hat)


def test_certificate_uses_optimal_z(fam):
    f = fam("geometric", 200)
    cert = find_drift_certificate(f)
    assert cert.z == math.sqrt(2.0 / (cert.r_hat + 1.0))
    assert cert.rho == rho_bound(cert.r_hat, cert.q_hat, cert.z)
    for step in (1.0 - 1e-3, 1.0 + 1e-3):
        assert rho_bound(cert.r_hat, cert.q_hat, cert.z * step) >= cert.rho


@pytest.mark.parametrize("name", ["alternating", "mixed-geometric"])
def test_tail_ratio_finite_where_p_and_q_underflow(name):
    # p and q both underflow in this tail, so a plain p/q would be 0/0
    spec = example_spec(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = certify(build_family(spec, 1000))
    assert out.r_hat == math.exp(-2.0) and out.q_hat == 0.0


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
    assert lifted.rho < lifted.gamma < 1.0


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
    states = build_Prgs(f, scan_p).states
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
    assert {"z", "rho", "L", "x0", "r_hat", "q_hat", "log_L", "N"} <= set(d)
    lifted = lift_to_rgs(cert, 0.25)
    d2 = lifted.to_json_dict()
    assert d2["rgs"]["scan_p"] == 0.25
    assert {"c", "gamma", "bound_constant"} <= set(d2["rgs"])


# -- certify: search, verify, lift, verify --------------------------------

# rho* is within a few ulps of 1: below the verifier's tolerance
VACUOUS = table(
    (1.2602965398145352e-38, 2.6507480257709705e-267, 3.70335196283661e-135,
     3.0989551395265743e-125),
    (8.734113359284468e-165, 3.831735966407416e-299, 1.155024330605395e-179,
     1.141077950296553e-112),
    tail_ratio=0.7686484683596883)
# -log rho* = 3.1e-10 clears the tolerance, but at scan_p 1e-7 the lift's
# gamma = 1 - 1.6e-17 rounds to 1.0
UNLIFTABLE = table((1.0,), (1.0,), tail_ratio=0.9998)


def _json_round_trips(cert):
    """The certificate's JSON is strict and reads back as the dict written."""
    d = cert.to_json_dict()
    return json.loads(json.dumps(d, allow_nan=False)) == d


def test_certify_refuses_an_unrepresentable_lift():
    f = build_family(UNLIFTABLE, 154)
    cert = certify(f)
    assert isinstance(cert, DriftCertificate)
    assert VERIFY_TOL < -math.log(cert.rho) < 1e-9
    with pytest.raises(COutOfRange):
        lift_to_rgs(cert, 1e-7)
    out = certify(f, 1e-7)
    assert isinstance(out, NoCertificate) and "lift" in out.reason
    assert (out.r_hat, out.q_hat) == (cert.r_hat, cert.q_hat)


def test_certify_refuses_a_margin_below_the_verifier_tolerance():
    # verified with log excess up to VERIFY_TOL, a rate rho with
    # -log rho <= VERIFY_TOL would prove nothing
    out = certify(build_family(VACUOUS, 154))
    assert isinstance(out, NoCertificate) and "VERIFY_TOL = 1e-10" in out.reason
    assert -math.log(rho_bound(out.r_hat, out.q_hat,
                               math.sqrt(2.0 / (out.r_hat + 1.0)))) < 1e-15
    # the lift is held to the same rule: gamma's margin is about
    # scan_p (1 - sqrt(rho)), 2.5e-12 here
    out = certify(build_family(example_spec("geometric"), 200), 1e-9)
    assert isinstance(out, NoCertificate)
    assert out.reason.startswith("margin -log gamma = 2.48e-12 is not above")


def test_certify_checks_scan_p_before_searching():
    f = build_family(example_spec("power-law"), 10000)
    assert isinstance(certify(f), NoCertificate)
    for s in (0.0, 1.0, 1.5):
        with pytest.raises(BadScanProbability):
            certify(f, s)


@pytest.mark.parametrize("scan_p, failing, step", [
    (None, None, "marginal"), (0.5, 0.5, "lifted")])
def test_certify_refuses_a_certificate_that_fails_verification(
        fam, monkeypatch, scan_p, failing, step):
    import ergochain.drift as drift

    real = drift.verify_drift

    def verify(cert, f):
        rep = real(cert, f)
        return dataclasses.replace(rep, holds=rep.holds and cert.scan_p != failing)

    monkeypatch.setattr(drift, "verify_drift", verify)
    out = certify(fam("geometric", 100), scan_p)
    assert isinstance(out, NoCertificate) and step in out.reason


def test_certify_sweep_agrees_with_classify_and_round_trips():
    # random tables in the style of the tail-underflow sweeps; a few of
    # them reach rho or gamma within the verifier's tolerance of 1, down to
    # rho within ulps of 1, and are refused by VERIFY_TOL
    rng = np.random.default_rng(20261018)
    unresolved = lifted = 0
    for _ in range(800):
        k = int(rng.integers(3, 21))
        a = tuple(10.0 ** rng.uniform(-300, 0, k))
        b = tuple(10.0 ** rng.uniform(-300, 0, k))
        spec = table(a, b, tail_ratio=float(rng.uniform(0.05, 0.95)))
        N, s = int(rng.integers(10, 151)), float(rng.uniform(0.05, 0.95))
        f = build_family(spec, N)
        v = classify(spec, N, scan_p=s)
        cert = certify(f, s)
        if v.certificate is not None:
            assert cert == v.certificate
        if isinstance(cert, NoCertificate):
            unresolved += "VERIFY_TOL" in cert.reason and "= 0 " not in cert.reason
            continue
        lifted += 1
        assert _json_round_trips(cert)
        base = dataclasses.replace(cert, scan_p=None, c=None, gamma=None)
        assert _json_round_trips(base) and base == certify(f)
    assert unresolved >= 1 and lifted >= 10


# -- every issued certificate holds, checked without log_expect --------------

_ENTRY = st.floats(1e-300, 1e300)
_TABLES = st.builds(table, st.lists(_ENTRY, min_size=1, max_size=8).map(tuple),
                    st.lists(_ENTRY, min_size=1, max_size=8).map(tuple),
                    tail_ratio=st.floats(0.01, 0.999) | st.floats(0.9998, 0.99999))


def _dense_violation(cert, f):
    """Largest log excess of E W(X_1) over the certified bound, state by
    state from the conditional laws: E V(X_1) = V(x) (p z + stay + q / z)
    on the marginal chain, and on the random scan with x-update
    probability s, E W = s (1 + c) G(y) + (1 - s)(V(x) + c E V(X_1))."""
    lz = math.log(cert.z)
    xs = np.arange(1, f.N + 1)
    log_PV = xs * lz + np.log(f.p * cert.z + (1.0 - f.p - f.q) + f.q / cert.z)
    if cert.scan_p is None:
        lhs = log_PV
        rhs = np.logaddexp(math.log(cert.rho) + xs * lz, cert.log_L)
        return float(np.max(lhs - rhs))
    s, lc = cert.scan_p, math.log(cert.c)
    log_G = (np.logaddexp(f.log_a, lz + f.log_b) - np.logaddexp(f.log_a, f.log_b)
             + xs * lz)
    x = np.concatenate((xs, xs[1:]))       # (x, x) and (x + 1, x)
    y = np.concatenate((xs, xs[:-1]))
    lhs = np.logaddexp(math.log(s) + math.log1p(cert.c) + log_G[y - 1],
                       math.log1p(-s) + np.logaddexp(x * lz, lc + log_PV[x - 1]))
    log_W = np.logaddexp(x * lz, lc + log_G[y - 1])
    rhs = np.logaddexp(math.log(cert.gamma) + log_W, cert.log_bound_constant)
    return float(np.max(lhs - rhs))


@settings(max_examples=60, deadline=None)
@given(spec=_TABLES, N=st.integers(10, 300), scan_p=st.floats(0.05, 0.95))
def test_issued_certificates_hold_at_every_state(spec, N, scan_p):
    f = build_family(spec, N)
    for cert in (certify(f), certify(f, scan_p)):
        if isinstance(cert, DriftCertificate):
            assert _dense_violation(cert, f) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(spec=_TABLES, N=st.integers(2, 300), scan_p=st.floats(1e-9, 1.0 - 1e-9))
def test_no_issued_certificate_is_within_the_verifier_tolerance(spec, N, scan_p):
    # verify_drift accepts a log excess up to VERIFY_TOL, so an issued
    # rate must be below one by more than that
    f = build_family(spec, N)
    for cert in (certify(f), certify(f, scan_p)):
        if isinstance(cert, DriftCertificate):
            assert -math.log(cert.rho) > VERIFY_TOL
            assert cert.gamma is None or -math.log(cert.gamma) > VERIFY_TOL

"""Drift coefficients, certificate search, and the random-scan lift.

The lift arithmetic is pinned against hand-computed constants for a
synthetic certificate, so the formulas are checked independently of the
search that normally produces their inputs.
"""

import dataclasses
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergochain import (
    BadScanProbability,
    COutOfRange,
    DegenerateTruncation,
    DriftCertificate,
    NoCertificate,
    admissible_c_interval,
    build_family,
    classify,
    example_spec,
    find_drift_certificate,
    lift_to_rgs,
    power_law,
    table,
    tail_limits,
    verify_drift,
)
from ergochain.drift import certify
from ergochain.kernels import build_Prgs, build_Px
from ergochain.spec import _tail_start

COEF_GEO_Z13_X10 = 0.960187767622529   # frozen direct evaluation
Z_UPPER_GEO = 1.4621171572600098       # 2 / (e^{-1} + 1)


# -- oracles: the drift formulas in their textbook form ------------------------


def drift_coefficient(p, q, z):
    """One-step multiplier 1 + eps of V(x) = z^x at up/down probabilities
    (p, q)."""
    if not (z > 1.0 and math.isfinite(z)):
        raise ValueError(f"z = {z!r} must be finite and exceed 1")
    return p * (z - 1.0) + q * (1.0 / z - 1.0) + 1.0


def rho_bound(r_hat, q_hat, z):
    """The rate the tail constants (r_hat, q_hat) certify at base z."""
    return 1.0 + 0.5 * q_hat * (z - 1.0) * (0.5 * (r_hat + 1.0) - 1.0 / z)


def test_coefficient_tends_to_one_as_z_shrinks():
    base = drift_coefficient(0.12, 0.33, 1.0 + 1e-12)
    assert base == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("z", [1.0, 0.5, -2.0, float("inf"), float("nan")])
def test_coefficient_rejects_bad_z(z):
    with pytest.raises(ValueError):
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
    got = build_Px(f).P.toarray() @ z ** x
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
    # the tail's limit r_hat = 1 fires S1 (and with it S2), and the family
    # has no geometric rate
    out = certify(example_spec("power-law"), N)
    assert isinstance(out, NoCertificate)
    assert out.r_hat == 1.0
    assert out.reason == "the tail limits fire S1, S2: no geometric drift"


@pytest.mark.parametrize("name", ["power-law", "geometric", "mixed-geometric",
                                  "alternating"])
@pytest.mark.parametrize("N", [10, 50, 200])
@pytest.mark.parametrize("scan_p", [None, 0.5])
def test_surrogates_are_the_tail_estimates(fam, name, N, scan_p):
    spec = example_spec(name)
    est = tail_limits(spec)
    cert = certify(example_spec(name), N, scan_p)
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
        out = certify(spec, 1000)
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
    assert rep.checked == 100 and rep == verify_drift(cert, f)
    assert lifted.gamma > cert.rho


def _verify_peak(cert, f):
    tracemalloc.start()
    try:
        assert verify_drift(cert, f).holds
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lifted_verification_costs_the_marginal_one():
    # a lifted certificate is checked on the N marginal rows: its peak is
    # within 10 % of the marginal one's, and 10 % of that is less than one
    # N-state array, so no array of the 2N - 1 staircase pairs is allocated
    N = 2 * 10 ** 5
    f = build_family(example_spec("geometric"), N)
    f.p, f.q                            # derived on first read, by either
    cert = certify(f.spec, N)
    marginal = _verify_peak(cert, f)
    lifted = _verify_peak(lift_to_rgs(cert, 0.5), f)
    assert lifted <= 1.1 * marginal and 0.1 * marginal < 8 * N


@pytest.mark.parametrize("scan_p, u", [(None, None), (0.2, 0.1), (0.2, 0.9),
                                        (0.5, 0.5), (0.8, 0.1), (0.8, 0.9)])
def test_verified_excess_is_the_dense_one(fam, scan_p, u):
    # max_violation is the largest excess of the one-step expectation over
    # the certified bound, in units of 1 - rho; rebuilt here densely from
    # the conditional laws, where float64 resolves it (1 - rho = 5e-3). A
    # lifted pair's excess is at most the marginal excess of its x, so a
    # lifted certificate reports its marginal rows
    f = fam("geometric", 40)
    cert = find_drift_certificate(f)
    z, delta, L = cert.z, cert.one_minus_rho, cert.L
    xs = np.arange(1, f.N + 1)
    V = z ** xs.astype(float)
    PV = V * (f.p * z + (1.0 - f.p - f.q) + f.q / z)
    inside = xs <= cert.x0
    ref = (PV - (1.0 - delta) * V - L * inside) / (V * delta)
    rep = verify_drift(cert, f)
    if scan_p is not None:
        lo, hi = admissible_c_interval(cert, scan_p)
        lifted = lift_to_rgs(cert, scan_p, c=lo * (hi / lo) ** u)
        s, c = scan_p, lifted.c
        gamma = 1.0 - 10.0 ** lifted.log10_one_minus_gamma
        G = (f.a + z * f.b) / (f.a + f.b) * V
        x = np.concatenate((xs, xs[1:]))       # (y, y), then (y + 1, y)
        y = np.concatenate((xs, xs[:-1]))
        W = V[x - 1] + c * G[y - 1]
        EW = s * (1.0 + c) * G[y - 1] + (1.0 - s) * (V[x - 1] + c * PV[x - 1])
        K = (1.0 - s) * c * L * inside[x - 1]
        lifted_ref = (EW - gamma * W - K) / ((1.0 - s) * c * V[x - 1] * delta)
        # float64 rounding of the dense sums, in units of 1 - rho
        assert (lifted_ref <= ref[x - 1] + 1e-9).all()
        assert verify_drift(lifted, f) == rep
    assert rep.holds
    assert rep.max_violation == pytest.approx(ref.max(), rel=1e-6)


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
    got = np.log(build_Prgs(f, scan_p).P.toarray() @ np.exp(log_W))
    assert np.allclose(got, np.log(ref), rtol=0, atol=1e-12)


def test_certificate_json_fields(fam):
    cert = find_drift_certificate(fam("geometric", 100))
    d = cert.to_json_dict()
    assert {"z", "rho", "L", "x0", "r_hat", "q_hat", "log_L", "N"} <= set(d)
    lifted = lift_to_rgs(cert, 0.25)
    d2 = lifted.to_json_dict()
    assert d2["rgs"]["scan_p"] == 0.25
    assert {"c", "gamma", "tau", "bound_constant"} <= set(d2["rgs"])
    # c is lo / (1 - tau) rounded to nearest
    s, tau = Fraction(0.25), Fraction(d2["rgs"]["tau"])
    assert d2["rgs"]["c"] == float(s / ((1 - s) * (1 - tau)))


def _base_fields(cert):
    return {k: getattr(cert, k) for k in ("z", "rho", "log_L", "x0", "r_hat",
                                          "q_hat", "N")}


def test_hand_built_lifted_certificate(fam):
    # a lift is scan_p and tau, set together; c and gamma are read from them
    f = fam("geometric", 100)
    cert = find_drift_certificate(f)
    lifted = lift_to_rgs(cert, 0.5)
    hand = DriftCertificate(**_base_fields(cert), scan_p=0.5, tau=lifted.tau)
    assert hand == lifted and verify_drift(hand, f).holds
    assert hand.to_json_dict() == lifted.to_json_dict()
    for lift in ({"scan_p": 0.5}, {"tau": lifted.tau}, {"scan_p": 0.5, "tau": 0.0},
                 {"scan_p": 0.5, "tau": cert.one_minus_rho}):
        with pytest.raises(COutOfRange):
            DriftCertificate(**_base_fields(cert), **lift)
    with pytest.raises(BadScanProbability):
        DriftCertificate(**_base_fields(cert), scan_p=1.0, tau=lifted.tau)


def test_lift_states_the_rate_it_verifies(fam):
    f = fam("geometric", 100)
    lifted = certify(f.spec, f.N, 0.5)
    # gamma is not stored, so it cannot be set apart from the lift
    with pytest.raises(TypeError):
        dataclasses.replace(lifted, gamma=lifted.rho)
    # every tau in (0, delta) is a lift, the gamma it states verifies, and
    # the default tau = 1 - sqrt(1 - delta) states the fastest one
    for k in (1, 3, 5, 7):
        other = dataclasses.replace(lifted, tau=lifted.one_minus_rho * k / 8)
        assert lifted.gamma < other.gamma < 1.0 and verify_drift(other, f).holds
    # a rho that claims a faster marginal rate fails verification, lifted
    # or not
    bad = dataclasses.replace(lifted, rho=lifted.rho / 2.0)
    assert bad.one_minus_rho == 1.0 - bad.rho > lifted.one_minus_rho
    assert not verify_drift(bad, f).holds
    assert not verify_drift(dataclasses.replace(bad, scan_p=None, tau=None), f).holds


def test_rates_are_rounded_up_onto_their_margins():
    # at scan_p 1 - 2^-53, 1 - gamma = 2^-53 (1 - sqrt(rho)) = 2.75e-19, so
    # gamma is 1.0, not the float formula's 1 - 2^-52
    f = build_family(example_spec("geometric"), 200)
    out = certify(f.spec, f.N, 0.9999999999999999)
    assert out.gamma == 1.0 and verify_drift(out, f).holds
    assert out.log10_one_minus_gamma == pytest.approx(-18.5607, abs=1e-3)
    # rho is the smallest float64 at least 1 - delta, never rounded below it
    for spec in (VACUOUS, UNLIFTABLE, example_spec("geometric")):
        cert = certify(spec, 154)
        one_minus = 1 - Fraction(cert.one_minus_rho)
        assert Fraction(cert.rho) >= one_minus > Fraction(math.nextafter(cert.rho, 0.0))


# -- certify: search, verify, lift, verify --------------------------------

# rho* is within a few ulps of 1, and 1 - rho* is stated in log10
VACUOUS = table(
    (1.2602965398145352e-38, 2.6507480257709705e-267, 3.70335196283661e-135,
     3.0989551395265743e-125),
    (8.734113359284468e-165, 3.831735966407416e-299, 1.155024330605395e-179,
     1.141077950296553e-112),
    tail_ratio=0.7686484683596883)
# 1 - rho* = 3.1e-10, and at scan_p 1e-7 the lift's gamma = 1 - 1.6e-17
# rounds to 1.0
UNLIFTABLE = table((1.0,), (1.0,), tail_ratio=0.9998)


def _json_round_trips(cert):
    """The certificate's JSON is strict and reads back as the dict written."""
    d = cert.to_json_dict()
    return json.loads(json.dumps(d, allow_nan=False)) == d


def test_certify_lifts_where_gamma_rounds_to_1():
    f = build_family(UNLIFTABLE, 154)
    cert = certify(f.spec, f.N)
    assert isinstance(cert, DriftCertificate)
    assert 3e-10 < cert.one_minus_rho < 3.2e-10 and cert.rho < 1.0
    out = certify(f.spec, f.N, 1e-7)
    assert isinstance(out, DriftCertificate) and out.gamma == 1.0
    assert verify_drift(out, f).holds
    # 1 - gamma = min(s, 1 - s)(1 - sqrt(rho)), and tau = 1 - sqrt(rho)
    tau = -math.expm1(0.5 * math.log1p(-cert.one_minus_rho))
    assert out.tau == tau
    assert out.log10_one_minus_gamma == pytest.approx(math.log10(1e-7 * tau),
                                                      rel=1e-14)
    assert (out.r_hat, out.q_hat) == (cert.r_hat, cert.q_hat)


def test_certify_refuses_only_a_margin_that_underflows():
    # a rate rho* within ulps of 1 is certified: its margin is carried in
    # log10, and rho prints as its float64 rounding
    f = build_family(VACUOUS, 154)
    out = certify(f.spec, f.N)
    assert isinstance(out, DriftCertificate) and verify_drift(out, f).holds
    assert out.to_json_dict()["log10_one_minus_rho"] == math.log10(out.one_minus_rho)
    assert out.one_minus_rho < 1e-15
    # the lift keeps its margin too: 1 - gamma = scan_p (1 - sqrt(rho)),
    # 2.5e-12 here
    out = certify(example_spec("geometric"), 200, 1e-9)
    assert isinstance(out, DriftCertificate) and out.gamma < 1.0
    assert 10.0 ** out.log10_one_minus_gamma == pytest.approx(2.48e-12, rel=1e-2)
    # only a margin below float64's normal range is refused, with that reason
    out = certify(table((1e-306,), (1.0,), tail_ratio=0.5), 154)
    assert isinstance(out, NoCertificate) and "underflows float64" in out.reason


def test_certify_refuses_a_base_that_rounds_to_one():
    # r_hat within five ulps of 1: z* = sqrt(2 / (r_hat + 1)) is 1.0 in
    # float64, so V = z^x is constant and would pass as rho = 1, x0 = N
    for k in (1, 5):
        f = build_family(table((1.0,), (1.0,), tail_ratio=1.0 - k * 2.0 ** -53), 50)
        for scan_p in (None, 0.5):
            out = certify(f.spec, f.N, scan_p)
            assert isinstance(out, NoCertificate)
            assert "rounds to 1.0 in float64" in out.reason
    # from six to 24 ulps below 1, z* > 1 and the tail's excess, at most
    # -6 delta, is within its float bound of -delta: the exact check
    # decides it, and the certificate holds with x0 = 1 on every truncation
    for k in (6, 24):
        spec = table((1.0,), (1.0,), tail_ratio=1.0 - k * 2.0 ** -53)
        for scan_p in (None, 0.5):
            out = certify(spec, 50, scan_p)
            assert isinstance(out, DriftCertificate) and out.z > 1.0 and out.x0 == 1
            for N in (2, 50, 2000):
                assert verify_drift(out, build_family(spec, N)).holds
    # 25 ulps below 1, z* = 1 + 3 ulps and the certificate holds, x0 = 1
    spec = table((1.0,), (1.0,), tail_ratio=1.0 - 25 * 2.0 ** -53)
    out = certify(spec, 50, 0.5)
    assert isinstance(out, DriftCertificate) and out.z > 1.0 and out.x0 == 1
    for N in (2, 50, 2000):
        assert verify_drift(out, build_family(spec, N)).holds


def test_certify_checks_scan_p_before_searching():
    f = build_family(example_spec("power-law"), 10000)
    assert isinstance(certify(f.spec, f.N), NoCertificate)
    for s in (0.0, 1.0, 1.5):
        with pytest.raises(BadScanProbability):
            certify(f.spec, f.N, s)


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
    out = certify(example_spec("geometric"), 100, scan_p)
    assert isinstance(out, NoCertificate) and step in out.reason


def test_certify_verifies_once(fam, monkeypatch):
    # a lifted certificate's verification checks the marginal excess too,
    # so certify verifies only the certificate it issues
    import ergochain.drift as drift

    real, checked = drift.verify_drift, []

    def verify(cert, f):
        checked.append(cert.scan_p)
        return real(cert, f)

    monkeypatch.setattr(drift, "verify_drift", verify)
    for scan_p in (None, 0.5):
        assert isinstance(certify(example_spec("geometric"), 100, scan_p),
                          DriftCertificate)
    assert checked == [None, 0.5]


@pytest.mark.parametrize("N", [10, 2000])
def test_certificates_build_no_kernel(fam, monkeypatch, N):
    # L is read from the excess array the search forms for x0, so neither
    # certify nor classify builds a transition kernel
    import ergochain.kernels as kernels

    def refuse(*args, **kwargs):
        raise AssertionError("a drift certificate built a kernel")

    monkeypatch.setattr(kernels, "build_Px", refuse)
    monkeypatch.setattr(kernels.TransitionMatrix, "__init__", refuse)
    f = fam("geometric", N)
    assert isinstance(certify(f.spec, f.N), DriftCertificate)
    assert isinstance(certify(f.spec, f.N, 0.5), DriftCertificate)
    v = classify(example_spec("geometric"), N)
    assert v.verdict == "Geometric" and isinstance(v.certificate, DriftCertificate)


def test_certify_builds_only_the_head_family(monkeypatch):
    # the certificate is found and verified on the head family, whose size
    # the spec fixes, so certify builds no family at N
    import ergochain.drift as drift

    built = []

    def recording(spec, N):
        built.append(N)
        return build_family(spec, N)

    monkeypatch.setattr(drift, "build_family", recording)
    for spec in (example_spec("geometric"), table((1.0, 3.0), (2.0,), tail_ratio=0.7)):
        for scan_p in (None, 0.5):
            built.clear()
            cert = certify(spec, 1_000_000, scan_p)
            assert isinstance(cert, DriftCertificate) and cert.N == 1_000_000
            assert built == [_tail_start(spec) + 3]


def test_certify_checks_N_before_scan_p():
    # N is checked as build_family checks it, and before scan_p
    for spec in (example_spec("geometric"), example_spec("power-law")):
        for scan_p in (None, 0.5, 1.5):
            with pytest.raises(DegenerateTruncation):
                certify(spec, 1, scan_p)
    assert certify(example_spec("geometric"), 2).N == 2


def test_certify_sweep_agrees_with_classify_and_round_trips():
    # random tables in the style of the tail-underflow sweeps; a few of
    # them reach rho or gamma within 1e-10 of 1, down to rho within ulps of
    # 1, and each is certified
    rng = np.random.default_rng(20261018)
    near_1 = lifted = 0
    for _ in range(800):
        k = int(rng.integers(3, 21))
        a = tuple(10.0 ** rng.uniform(-300, 0, k))
        b = tuple(10.0 ** rng.uniform(-300, 0, k))
        spec = table(a, b, tail_ratio=float(rng.uniform(0.05, 0.95)))
        N, s = int(rng.integers(10, 151)), float(rng.uniform(0.05, 0.95))
        f = build_family(spec, N)
        v = classify(spec, N, scan_p=s)
        cert = certify(f.spec, f.N, s)
        if v.certificate is not None:
            assert cert == v.certificate
        assert isinstance(cert, DriftCertificate)
        near_1 += cert.to_json_dict()["rgs"]["log10_one_minus_gamma"] < -10.0
        lifted += 1
        assert _json_round_trips(cert)
        base = dataclasses.replace(cert, scan_p=None, tau=None)
        assert _json_round_trips(base) and base == certify(f.spec, f.N)
    assert near_1 >= 1 and lifted == 800


# -- every issued certificate holds, checked state by state -----------------

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
    for cert in (certify(f.spec, f.N), certify(f.spec, f.N, scan_p)):
        if isinstance(cert, DriftCertificate):
            assert _dense_violation(cert, f) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(spec=_TABLES, N=st.integers(2, 300), scan_p=st.floats(1e-9, 1.0 - 1e-9))
def test_issued_certificates_state_their_margins(spec, N, scan_p):
    # an issued certificate states 1 - rho and 1 - gamma in log10, finite
    # and negative, with 1 - gamma = min(s, 1 - s)(1 - sqrt(rho)) < 1 - rho,
    # and rho and gamma are those margins rounded up to float64
    f = build_family(spec, N)
    for cert in (certify(f.spec, f.N), certify(f.spec, f.N, scan_p)):
        if isinstance(cert, NoCertificate):
            assert "underflows float64" in cert.reason
            continue
        d = cert.to_json_dict()
        assert -308.0 < d["log10_one_minus_rho"] < 0.0
        assert _rounded_up(cert.rho, Fraction(cert.one_minus_rho))
        if cert.scan_p is not None:
            g = d["rgs"]["log10_one_minus_gamma"]
            assert math.isfinite(g) and g < d["log10_one_minus_rho"]
            assert cert.rho <= cert.gamma <= 1.0
            s, tau = Fraction(cert.scan_p), Fraction(cert.tau)
            delta = Fraction(cert.one_minus_rho)
            w = min(delta - tau, tau * (1 - tau) * (1 - s) / s)
            assert _rounded_up(cert.gamma, s * w / (1 - tau))


def _rounded_up(rate, margin):
    """rate is the smallest float64 at least 1 - margin."""
    return Fraction(rate) >= 1 - margin > Fraction(math.nextafter(rate, 0.0))


# -- every certificate at N <= 60 holds to 50 digits --------------------------


def _mp_recheck(cert, f):
    """The certificate rechecked at 50 digits from the family's log a and
    log b, against the rates it states: delta within rounding of its
    closed form, rho >= 1 - delta, eps(x) <= -delta beyond x0 and
    E V <= rho V + L at every x; when lifted, E W <= gamma W + (1 - s) c L
    at every staircase pair with c = lo / (1 - tau), and the stated
    log10 (1 - gamma) equal to 1 - gamma from tau to rounding."""
    from mpmath import exp, log10, mpf, sqrt

    a = [exp(mpf(v)) for v in f.log_a]
    b = [exp(mpf(v)) for v in f.log_b] + [mpf(0)]
    pix = [a[i] + (b[i - 1] if i else 0) for i in range(f.N)]
    piy = [a[i] + b[i] for i in range(f.N)]
    z, L, rho = mpf(cert.z), exp(mpf(cert.log_L)), mpf(cert.rho)
    r, q = mpf(cert.r_hat), mpf(cert.q_hat)
    delta = mpf(cert.one_minus_rho)
    ok = abs(delta / (q / 2 * (1 - sqrt((r + 1) / 2)) ** 2) - 1) <= 1e-14
    ok &= rho >= 1 - delta
    PV = []
    for i in range(f.N):
        p_x = a[i] * b[i] / (pix[i] * piy[i])
        q_x = a[i - 1] * b[i - 1] / (pix[i] * piy[i - 1]) if i else 0
        eps = p_x * (z - 1) + q_x * (1 / z - 1)
        PV.append((1 + eps) * z ** (i + 1))
        ok &= eps <= -delta if i + 1 > cert.x0 else PV[i] <= rho * z ** (i + 1) + L
    if cert.scan_p is None:
        return ok
    s, tau, gamma = mpf(cert.scan_p), mpf(cert.tau), mpf(cert.gamma)
    lo = s / (1 - s)
    c = lo / (1 - tau)
    one_minus_gamma = s * min(delta - tau, tau * (1 - tau) / lo) / (1 - tau)
    ok &= abs(log10(one_minus_gamma) - cert.log10_one_minus_gamma) <= 1e-13 * (
        1 + abs(cert.log10_one_minus_gamma))
    const = (1 - s) * c * L
    for y in range(1, f.N + 1):
        G = (a[y - 1] + z * b[y - 1]) / piy[y - 1] * z ** y
        for x in (y, y + 1)[:1 if y == f.N else 2]:
            W = z ** x + c * G
            EW = s * (1 + c) * G + (1 - s) * (z ** x + c * PV[x - 1])
            ok &= EW <= gamma * W + const
    return ok


_RECHECK_SPECS = [
    *(example_spec(name) for name in ("geometric", "power-law", "mixed-geometric",
                                      "alternating")),
    *(table((1.0,), (1.0,), tail_ratio=r) for r in (0.9, 0.99, 0.999, 0.9999,
                                                     0.99999)),
    table((1.0,), (1e-10,), tail_ratio=0.5), table((1e-10,), (1.0,), tail_ratio=0.5),
    table((1.0,), (1e-200,), tail_ratio=0.5), VACUOUS, UNLIFTABLE,
    table(tuple(10.0 ** (-5 * k) for k in range(16)), (1.0,), tail_ratio=0.5),
]


def _head(spec):
    """The head family, where certify finds and verifies a certificate:
    its rows up to K + 2 are the untruncated chain's."""
    return build_family(spec, _tail_start(spec) + 3)


@pytest.mark.parametrize("scan_p", [None, 0.5, 1e-7, 0.9999999999999999, 1e-300])
def test_issued_certificates_hold_to_50_digits(scan_p):
    # on each truncation, and on the head family, whose rows K + 1 and
    # K + 2 stand for every state of the untruncated tail
    from mpmath import mp

    issued = 0
    with mp.workdps(50):
        for spec in _RECHECK_SPECS:
            for N in (2, 10, 60):
                f = build_family(spec, N)
                cert = certify(f.spec, f.N, scan_p)
                if isinstance(cert, DriftCertificate):
                    issued += 1
                    assert _mp_recheck(cert, f), (spec, N)
                    assert _mp_recheck(cert, _head(spec)), spec
    assert issued == 3 * (len(_RECHECK_SPECS) - 3)


# -- the tail row holds to 50 digits where the spec's logs are large ---------


def _exact_excess(spec, z, x):
    """eps(x) of the untruncated chain at 50 digits, from the spec's
    entries taken as exact: a table's, extended by its tail ratio."""
    from mpmath import mpf

    def entry(tab, i):
        n, r = len(tab), mpf(spec.tail_ratio)
        return mpf(tab[i - 1]) if i <= n else mpf(tab[-1]) * r ** (i - n)

    a = [entry(spec.a_table, i) for i in (x - 1, x)]
    b = [entry(spec.b_table, i) for i in (x - 1, x)]
    pix = a[1] + b[0]
    p = a[1] * b[1] / (pix * (a[1] + b[1]))
    q = a[0] * b[0] / (pix * (a[0] + b[0]))
    z = mpf(z)
    return p * (z - 1) - q * (1 - 1 / z)


def _verdicts_hold_to_50_digits(spec, cert, xs):
    """On the rows xs of the head family, every row the search decides at
    most -delta is so at 50 digits from the spec's exact entries, and so
    is every row beyond x0."""
    from mpmath import mp, mpf

    from ergochain.drift import _excess

    delta = cert.one_minus_rho
    upper = _excess(_head(spec), cert.z, delta, 1)[1]
    with mp.workdps(50):
        for x in xs:
            below = _exact_excess(spec, cert.z, x) <= -mpf(delta)
            assert below or upper[x - 1] > 0.0, x
            assert below or x <= cert.x0, x
    return True


@pytest.mark.parametrize("B", [5, 300, 700])
@pytest.mark.parametrize("r", [0.5, 0.99, 1.0 - 1e-11, 1.0 - 1e-13])
def test_tail_row_holds_to_50_digits_where_logs_are_large(B, r):
    # the family's logs of this spec reach 2 B, so its p_x and q_x are off
    # by up to about 0.75 B eps64, and the float bound grows with the logs:
    # near r = 1 it leaves the tail rows open, and the exact check decides
    # them. Every spec is certified, and every row of the head family that
    # stands for the untruncated chain holds at 50 digits where the search
    # decides it, the tail row K + 1 among them
    spec = table((math.exp(B), 1.0), (math.exp(-B), 1.0), tail_ratio=r)
    K = _tail_start(spec)
    cert = certify(spec, 200)
    assert isinstance(cert, DriftCertificate) and cert.z == math.sqrt(2.0 / (r + 1.0))
    assert _verdicts_hold_to_50_digits(spec, cert, range(2, K + 3))
    if B >= 300 and r == 1.0 - 1e-13:
        assert cert.x0 == 2


@pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5])
def test_tail_row_holds_to_50_digits_after_a_large_shift(n):
    # n unit entries: the family stores every log shifted by log(2n) or
    # so, which rounds its p_x and q_x as logs of that size would (its
    # float excess is off by 4.06 eps64 (rise + fall) at n = 10^4, against
    # 50 digits); the float bound grows with the family's logs, which
    # carry that shift, and the rows the search decides hold at 50 digits
    r = 1.0 - 1e-12
    spec = table((1.0,) * n, (1.0,) * n, tail_ratio=r)
    K = _tail_start(spec)
    cert = certify(spec, 200)
    assert isinstance(cert, DriftCertificate) and cert.z == math.sqrt(2.0 / (r + 1.0))
    # the rows before n - 2 are all row 2
    assert _verdicts_hold_to_50_digits(spec, cert, (2, *range(n - 2, K + 3)))


@pytest.mark.parametrize("B", [-744.0, -700.0, 300.0, 700.0, 709.0])
@pytest.mark.parametrize("r", [0.5, 1.0 - 1e-13, 1.0 - 3e-13])
def test_float_bound_covers_the_excess_where_the_shift_is_large(B, r):
    # entries all near e^B: the family's logs are small, but the spec's
    # logs they were shifted from round at B, and so do p_x and q_x (62
    # times (1 + the family's log size) eps64 (rise + fall) at B = 700);
    # s counts |log| of the spec's top weight too, and the float excess
    # is within (1 + s) eps64 (rise + fall), a 64th of its bound, on every
    # row of the head family (0.31 times that, at most, here)
    from mpmath import mp, mpf

    from ergochain.drift import _FILTER, _log_size

    rng = np.random.default_rng(int(B) % 1000)
    a, b = (tuple(math.exp(B + d) for d in rng.uniform(-1e-3, 1e-3, 3)) for _ in "ab")
    spec = table(a, b, tail_ratio=r)
    f, z = _head(spec), math.sqrt(2.0 / (r + 1.0))
    rise, fall = f.p * (z - 1.0), f.q * ((z - 1.0) / z)
    room = _FILTER * (1.0 + _log_size(f)) * (rise + fall)
    with mp.workdps(50):
        for x in range(2, f.N):
            err = abs(mpf(rise[x - 1] - fall[x - 1]) - _exact_excess(spec, z, x))
            assert err <= room[x - 1] / 64.0, x


# -- L is the largest one-step expectation up to x0, to 50 digits -------------


def _log_L_is_exact(cert, spec):
    """log L within 2 eps of max over x <= x0 of log E[z^X_1 | X_0 = x] =
    log(z^x (1 + eps(x))), taken at 50 digits from the head family's own
    p and q."""
    from mpmath import log, mp, mpf

    f = _head(spec)
    with mp.workdps(50):
        z = mpf(cert.z)
        ref = max(x * log(z) + log(1 + mpf(float(f.p[x - 1])) * (z - 1)
                                   - mpf(float(f.q[x - 1])) * (1 - 1 / z))
                  for x in range(1, cert.x0 + 1))
        return abs(cert.log_L - ref) <= 2 * np.finfo(float).eps * abs(ref)


def test_geometric_L_is_exact_to_two_eps():
    for N in (2, 3, 10, 60):
        f = build_family(example_spec("geometric"), N)
        cert = certify(f.spec, f.N)
        assert isinstance(cert, DriftCertificate) and _log_L_is_exact(cert, f.spec), N


@settings(max_examples=60, deadline=None)
@given(spec=_TABLES, N=st.integers(2, 60))
def test_issued_L_is_exact_to_two_eps(spec, N):
    f = build_family(spec, N)
    cert = certify(f.spec, f.N)
    if isinstance(cert, DriftCertificate):
        assert _log_L_is_exact(cert, spec)

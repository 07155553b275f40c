"""End-to-end classification verdicts and report formatting."""

import dataclasses
import importlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergochain import (
    DegenerateTruncation,
    DriftCertificate,
    EmptyReport,
    ErgodicityVerdict,
    NoCertificate,
    UnknownFormat,
    alternating,
    build_family,
    certify,
    classify,
    divergence_flags,
    example_spec,
    geometric,
    mixed_geometric,
    power_law,
    table,
    tail_limits,
    verdict_report,
    verify_drift,
)
from ergochain.spec import KINDS

EXPECTED = {
    "power-law": ("Subgeometric", "divergence:S1"),
    "geometric": ("Geometric", "ratio_test"),
    "mixed-geometric": ("Subgeometric", "divergence:S2"),
    "alternating": ("Subgeometric", "divergence:S1"),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_verdicts(name):
    verdict, basis = EXPECTED[name]
    v = classify(example_spec(name), N=200)
    assert v.verdict == verdict
    assert v.basis == basis


def test_geometric_carries_verified_certificate():
    v = classify(example_spec("geometric"), N=200)
    cert = v.certificate
    assert isinstance(cert, DriftCertificate)
    assert cert.rho < 1.0 and cert.z > 1.0
    assert v.evidence == "exact-limits"
    assert v.subgeo_summary is None


def test_geometric_with_scan_lifts_certificate():
    v = classify(example_spec("geometric"), N=200, scan_p=0.5)
    cert = v.certificate
    assert isinstance(cert, DriftCertificate) and cert.scan_p == 0.5
    assert cert.scan_p == 0.5
    assert cert.rho < cert.gamma < 1.0


def test_subgeometric_carries_summary_with_fired_flag():
    v = classify(example_spec("mixed-geometric"), N=200)
    assert v.certificate is None
    assert v.subgeo_summary is not None
    fired = v.basis.split(":", 1)[1]
    assert v.subgeo_summary["diverging"][fired]
    # min T underflows for this family, so the bound saturates at one
    assert 0.0 < v.subgeo_summary["norm_lower_bound"] <= 1.0


def test_power_law_fires_S1_at_small_N():
    # the flags come from the exact tail limits (A = 1), so the verdict and
    # its summary name S1 at N = 10 as at every other N
    v = classify(example_spec("power-law"), N=10)
    assert v.verdict == "Subgeometric"
    assert v.basis == "divergence:S1"
    assert v.evidence == "exact-limits"
    assert v.subgeo_summary["diverging"]["S1"]
    assert "exhaustive" in v.equivalence_note


def test_geometric_tail_behind_steep_entries_fires_no_flag():
    # the a entries fall by 10^-5 a step, so S1 and S3 grow fast on them,
    # but beyond the table the tail has ratio 0.5 and a_i / b_i = 3.3e-71:
    # every statistic is bounded, so the verdict is Geometric, and the
    # certificate's margin 1 - rho, of the order of that ratio, is stated
    spec = table(tuple(10.0 ** (-5 * k) for k in range(16)), (1.0,),
                 tail_ratio=0.5)
    for N in (2, 5, 10, 200):
        v = classify(spec, N=N)
        assert (v.verdict, v.basis) == ("Geometric", "ratio_test")
        assert v.certificate.rho == 1.0 and v.subgeo_summary is None
        assert -74.0 < v.certificate.to_json_dict()["log10_one_minus_rho"] < -72.0


def test_near_critical_table_without_certificate_is_geometric():
    # tail ratio 0.9999 behind a_i / b_i = 1e300: the exact limits pass the
    # ratio test and no statistic fires, but the certificate's margin
    # 1 - rho = (q_hat/2)(1 - sqrt((r + 1)/2))^2, about 3e-310, underflows
    spec = table((1.0,), (1e-300,), tail_ratio=0.9999)
    v = classify(spec, N=60)
    assert (v.verdict, v.basis, v.evidence) == ("Geometric", "ratio_test",
                                                "exact-limits")
    assert v.certificate is None
    assert v.quantities["A"] == 0.9999
    out = certify(spec, 60)
    assert isinstance(out, NoCertificate) and "underflows" in out.reason


@pytest.mark.parametrize("r", [0.99, 0.995, 0.999, 0.9999, 0.99999])
def test_near_critical_table_is_geometric(r):
    # a constant tail ratio r < 1 is geometric at every N, with a verified
    # certificate that states how far its rates are below 1: with a_i = b_i,
    # q_hat = 1 / (2 (r + 1)), 1 - rho = (q_hat/2)(1 - sqrt((r + 1)/2))^2
    # and, at scan_p 1/2, 1 - gamma = (1 - sqrt(rho)) / 2
    from mpmath import log10, mp, mpf, sqrt

    with mp.workdps(30):
        q = 1 / (2 * (mpf(r) + 1))
        delta = q / 2 * (1 - sqrt((mpf(r) + 1) / 2)) ** 2
        log10_rho, log10_gamma = log10(delta), log10((1 - sqrt(1 - delta)) / 2)
    for N in (10, 2000):
        spec = table((1.0,), (1.0,), tail_ratio=r)
        v = classify(spec, N=N, scan_p=0.5)
        assert (v.verdict, v.basis, v.evidence) == ("Geometric", "ratio_test",
                                                    "exact-limits")
        assert verify_drift(v.certificate, build_family(spec, N)).holds
        d = v.certificate.to_json_dict()
        assert d["log10_one_minus_rho"] == pytest.approx(float(log10_rho), rel=1e-9)
        assert d["rgs"]["log10_one_minus_gamma"] == pytest.approx(
            float(log10_gamma), rel=1e-9)


@settings(max_examples=30, deadline=None, database=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
       st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
       st.floats(0.01, 0.99999), st.integers(2, 60))
def test_drift_certificate_alone_decides(a, b, r, N):
    # a table with a tail ratio below one is Geometric at every N; the
    # verdict carries certify's certificate when one is issued and none
    # only where certify refuses
    spec = table(a, b, tail_ratio=r)
    v = classify(spec, N=N)
    cert = certify(spec, N)
    assert (v.verdict, v.basis) == ("Geometric", "ratio_test")
    if isinstance(cert, DriftCertificate):
        assert v.certificate == cert
    else:
        assert v.certificate is None


_LOG_ENTRY = st.floats(-700.0, 700.0)
_TAIL_RATIO = (st.floats(1e-300, 1e-3) | st.floats(1e-3, 0.999)
               | st.floats(0.999, 1.0 - 1e-15))


@st.composite
def _specs(draw):
    """Specs of all five kinds: tables with entries over e^+-700 and tail
    ratios near 0 and near 1."""
    kind = draw(st.sampled_from(KINDS))
    pos = st.floats(1e-3, 1e3)
    if kind == "power_law":
        return power_law(draw(st.floats(1.5, 6.0)), draw(pos), draw(pos))
    if kind == "geometric":
        return geometric(draw(pos))
    if kind == "mixed_geometric":
        return mixed_geometric(draw(pos))
    if kind == "alternating":
        return alternating(draw(pos))
    entries = st.lists(_LOG_ENTRY, min_size=1, max_size=6).map(
        lambda logs: tuple(math.exp(x) for x in logs))
    return table(draw(entries), draw(entries), tail_ratio=draw(_TAIL_RATIO))


def _ratio_test(lim):
    """The paper's sufficient condition for a geometric rate of both scans."""
    return (lim.A < 1.0 and math.isfinite(lim.a_over_bprev)
            and math.isfinite(lim.b_over_a)
            and lim.A * ((1.0 + lim.M) / (1.0 + lim.m)) < 1.0)


@settings(max_examples=300, deadline=None, database=None)
@given(_specs())
def test_no_fired_flag_is_the_ratio_test(spec):
    lim = tail_limits(spec)
    assert (not any(divergence_flags(lim).values())) == _ratio_test(lim)


@settings(max_examples=60, deadline=None, database=None)
@given(_specs(), st.integers(2, 60), st.sampled_from([None, 0.5]))
def test_classify_has_two_outcomes_decided_by_the_flags(spec, N, scan_p):
    fam = build_family(spec, N)
    v = classify(spec, N=N, scan_p=scan_p)
    fired = any(divergence_flags(tail_limits(spec)).values())
    assert v.verdict == ("Subgeometric" if fired else "Geometric")
    if v.certificate is not None:
        assert v.verdict == "Geometric"
        assert verify_drift(v.certificate, fam).holds


def test_certificate_and_divergence_are_exclusive():
    for name in EXPECTED:
        for scan_p in (None, 0.5):
            v = classify(example_spec(name), N=100, scan_p=scan_p)
            fired = v.basis is not None and v.basis.startswith("divergence")
            assert not (fired and v.certificate is not None)


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("N", [50, 200, 2000])
@pytest.mark.parametrize("scan_p", [None, 0.5])
def test_verdict_never_mixes_certificate_and_fired_flag(name, N, scan_p):
    # classify must never pair a certificate with a subgeometric verdict,
    # nor a fired flag with a geometric one, at any N
    spec = example_spec(name)
    v = classify(spec, N=N, scan_p=scan_p)
    if v.verdict == "Subgeometric":
        assert v.certificate is None
    if v.verdict == "Geometric":
        assert v.subgeo_summary is None
        assert not any(divergence_flags(tail_limits(spec)).values())


def test_equivalence_note_present():
    v = classify(example_spec("geometric"), N=50)
    assert "exhaustive" in v.equivalence_note


def test_small_N_rejected():
    # only a truncation below 2 is refused, on either path; the limits
    # need no window
    for spec in (example_spec("geometric"), STEEP_HEAD, example_spec("power-law")):
        for scan_p in (None, 0.5, 1.5):
            with pytest.raises(DegenerateTruncation):
                classify(spec, N=1, scan_p=scan_p)
    for N in (2, 9):
        v = classify(example_spec("geometric"), N=N)
        assert (v.verdict, v.basis) == ("Geometric", "ratio_test")


# -- which families a verdict builds ----------------------------------------

STEEP_HEAD = table((1.0, 3.0), (2.0,), tail_ratio=0.7)


def _recording_build_family(monkeypatch):
    """The N of every family classify and certify build, in order."""
    built, real = [], build_family

    def recording(spec, N):
        built.append(N)
        return real(spec, N)

    for module in ("ergochain.classify", "ergochain.drift"):
        monkeypatch.setattr(importlib.import_module(module), "build_family", recording)
    return built


@pytest.mark.parametrize("scan_p", [None, 0.5])
@pytest.mark.parametrize("spec, K", [(example_spec("geometric"), 2), (STEEP_HEAD, 4)])
def test_geometric_verdict_builds_only_the_head_family(monkeypatch, spec, K, scan_p):
    # the certificate is found and verified on the head family, the
    # truncation at K + 3, so no family at N is built
    built = _recording_build_family(monkeypatch)
    v = classify(spec, 10 ** 6, scan_p)
    assert (v.verdict, v.N) == ("Geometric", 10 ** 6)
    assert v.certificate.N == 10 ** 6 and built == [K + 3]
    # and the verdict is the one at N = 10 but for N
    small = classify(spec, 10, scan_p)
    assert built == [K + 3] * 2
    large_cert = dataclasses.replace(small.certificate, N=10 ** 6)
    assert dataclasses.replace(small, N=10 ** 6, certificate=large_cert) == v


@pytest.mark.parametrize("scan_p", [None, 0.5])
def test_subgeometric_verdict_builds_the_family_at_N(monkeypatch, scan_p):
    # the subgeo summary reads the truncation at N
    built = _recording_build_family(monkeypatch)
    v = classify(example_spec("power-law"), 10 ** 5, scan_p)
    assert v.verdict == "Subgeometric" and built == [10 ** 5]


# the kinds a Geometric verdict can have: geometric, and tables with
# entries over e^+-700 and tail ratios from 1e-300 to 1 - 1e-15
_ENTRY = _LOG_ENTRY.map(math.exp)
_ENTRIES = st.lists(_ENTRY, min_size=1, max_size=12).map(tuple)
_RATIO_SPECS = (st.builds(geometric, _ENTRY)
                | st.builds(table, _ENTRIES, _ENTRIES, tail_ratio=_TAIL_RATIO))


@settings(max_examples=200, deadline=None)
@given(spec=_RATIO_SPECS, N=st.integers(2, 5000))
def test_a_geometric_verdict_refuses_no_N(spec, N):
    # classify builds no family at N on the Geometric path, so it relies on
    # build_family refusing no N >= 2 of the specs that reach that path
    assert build_family(spec, N).N == N


@pytest.mark.parametrize("spec", [
    example_spec("geometric"), geometric(1e-300), STEEP_HEAD,
    table((math.exp(700), 1.0), (math.exp(-700),), tail_ratio=1e-300),
    table((1e-300,), (1e300,), tail_ratio=1.0 - 1e-15)])
def test_a_geometric_verdict_refuses_no_N_at_the_largest(spec):
    assert build_family(spec, 10 ** 6).N == 10 ** 6


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("scan_p", [None, 0.5])
def test_json_round_trip(name, scan_p):
    v = classify(example_spec(name), N=100, scan_p=scan_p)
    v = dataclasses.replace(v, label=name)
    d = v.to_json_dict()
    # strict JSON that reads back as the dict written
    assert json.loads(json.dumps(d, allow_nan=False)) == d
    assert d["verdict"] == v.verdict and d["basis"] == v.basis
    assert (d["certificate"] is None) == (v.certificate is None)


def test_report_formats():
    vs = [dataclasses.replace(classify(example_spec(n), N=50), label=n)
          for n in sorted(EXPECTED)]
    tbl = verdict_report(vs, "table")
    lines = tbl.splitlines()
    assert len(lines) == 5
    assert lines[0].split()[:3] == ["label", "N", "verdict"]
    assert "geometric" in tbl and "Subgeometric" in tbl

    arr = json.loads(verdict_report(vs, "json"))
    assert [d["label"] for d in arr] == sorted(EXPECTED)

    with pytest.raises(EmptyReport):
        verdict_report([], "table")
    with pytest.raises(UnknownFormat):
        verdict_report(vs, "yaml")


def test_report_json_refuses_nan():
    # the JSON is strict, as every other JSON the command line writes
    v = ErgodicityVerdict(
        verdict="Subgeometric", basis="divergence:S1",
        evidence="exact-limits", N=50, scan_p=None, quantities={},
        subgeo_summary={"min_T": float("nan")}, label="nan")
    with pytest.raises(ValueError):
        verdict_report([v], "json")

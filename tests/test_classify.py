"""End-to-end classification verdicts and report formatting."""

import dataclasses
import json

import pytest

from ergochain import (
    DriftCertificate,
    EmptyReport,
    ErgodicityVerdict,
    IndexOutOfRange,
    UnknownFormat,
    build_family,
    build_subgeo_report,
    classify,
    example_spec,
    table,
    verdict_report,
)

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
    assert v.evidence == "declared-limits"
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


def test_declared_limits_fallback():
    # at N = 10 the horizon is too short for any ratio statistic to clear
    # the divergence level, but the declared tail limits settle it
    v = classify(example_spec("power-law"), N=10)
    assert v.verdict == "Subgeometric"
    assert v.basis == "declared"
    assert v.evidence == "declared-limits"


def test_inconclusive_witness():
    # constant ratios near one: every estimate sits in the borderline band
    # and the drift search is blocked, so no route can fire
    spec = table((1.0,), (1.0,), tail_ratio=0.999)
    v = classify(spec, N=60)
    assert v.verdict == "Inconclusive"
    assert v.basis is None
    assert v.certificate is None
    assert v.evidence == "numeric-estimates"
    assert v.quantities["A"] == pytest.approx(0.999, rel=1e-12)


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
    # drift alone certifies the truncated power-law chain at N = 50 and 200
    # (r_hat just under 0.99); classify must still not pair a certificate
    # with a subgeometric verdict, nor a fired flag with a geometric one
    spec = example_spec(name)
    v = classify(spec, N=N, scan_p=scan_p)
    if v.verdict == "Subgeometric":
        assert v.certificate is None
    if v.verdict == "Geometric":
        assert v.subgeo_summary is None
        report = build_subgeo_report(build_family(spec, N), scan_p=scan_p)
        assert report.stats.first_diverging() is None


def test_equivalence_note_present():
    v = classify(example_spec("geometric"), N=50)
    assert "exhaustive" in v.equivalence_note


def test_small_N_rejected():
    with pytest.raises(IndexOutOfRange):
        classify(example_spec("geometric"), N=9)


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("scan_p", [None, 0.5])
def test_json_round_trip(name, scan_p):
    v = classify(example_spec(name), N=100, scan_p=scan_p)
    v = dataclasses.replace(v, label=name)
    d = v.to_json_dict()
    json.dumps(d)  # must be serializable as-is
    v2 = ErgodicityVerdict.from_json_dict(d)
    assert v2.to_json_dict() == d
    assert v2.verdict == v.verdict and v2.basis == v.basis
    if v.certificate is not None:
        assert type(v2.certificate) is type(v.certificate)


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
        evidence="numeric-estimates", N=50, scan_p=None, quantities={},
        subgeo_summary={"min_T": float("nan")}, label="nan")
    with pytest.raises(ValueError):
        verdict_report([v], "json")

"""Command line behavior: exit codes, formats, and file output."""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergochain
from ergochain import table
from ergochain.cli import MAX_N, MAX_STEPS, MIN_N, dispatch
from ergochain.diagnostics import CLT_NOTE

# the ratio test passes (A = 0.9999), but behind a_i / b_i = 1e300 the
# certificate's margin 1 - rho, about 3e-310, underflows float64
UNCERTIFIED_SPEC = table((1.0,), (1e-300,), tail_ratio=0.9999).to_json()
# certifies with 1 - rho = 3.1e-10; at scan probability 1e-7 the lift's
# gamma = 1 - 1.6e-17 rounds to 1.0 in float64
UNLIFTABLE_SPEC = table((1.0,), (1.0,), tail_ratio=0.9998).to_json()
# a_i / b_i = 1e-306 leaves 1 - rho, about 9e-309, below float64's normal
# range, so a certificate would prove nothing that float64 can state
VACUOUS_SPEC = table((1e-306,), (1.0,), tail_ratio=0.5).to_json()
# tail ratio 1 - 2^-53: the optimal base z* = sqrt(2 / (r + 1)) rounds to
# 1.0, where V = z^x is constant and drifts nowhere
FLAT_SPEC = table((1.0,), (1.0,), tail_ratio=1.0 - 2.0 ** -53).to_json()


def run(capsys, *argv):
    code = dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_classify_geometric_json(capsys):
    code, out, err = run(capsys, "classify", "--example", "geometric")
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["verdict"] == "Geometric"
    assert d["basis"] == "ratio_test"
    assert d["label"] == "geometric"


def test_classify_table_format(capsys):
    code, out, _ = run(capsys, "classify", "--example", "power-law",
                       "--n", "100", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("label") and len(lines) == 2
    assert "Subgeometric" in lines[1]


def test_classify_uncertified_geometric_exits_0(capsys):
    code, out, _ = run(capsys, "classify", "--spec", UNCERTIFIED_SPEC,
                       "--n", "60")
    assert code == 0
    d = json.loads(out)
    assert (d["verdict"], d["basis"]) == ("Geometric", "ratio_test")
    assert d["certificate"] is None


def test_classify_uncertified_table_row(capsys):
    # a Geometric verdict without a certificate has no rate_info
    code, out, _ = run(capsys, "classify", "--spec", UNCERTIFIED_SPEC,
                       "--format", "table")
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[2] == "Geometric" and row[-1] == "-"


def test_classify_spec_from_file(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(UNCERTIFIED_SPEC)
    code, out, _ = run(capsys, "classify", "--spec", str(path), "--n", "60")
    assert code == 0
    d = json.loads(out)
    assert d["label"] == "spec" and d["verdict"] == "Geometric"
    assert d["certificate"] is None


def test_drift_certificate_found(capsys):
    code, out, _ = run(capsys, "drift", "--example", "geometric")
    assert code == 0
    d = json.loads(out)
    assert d["rho"] < 1.0 and d["z"] > 1.0
    assert d["N"] == 200 and d["L"] == pytest.approx(math.exp(d["log_L"]))


def test_drift_lifted_to_random_scan(capsys):
    code, out, _ = run(capsys, "drift", "--example", "geometric",
                       "--scan-p", "0.5")
    assert code == 0
    d = json.loads(out)
    assert d["rho"] < d["rgs"]["gamma"] < 1.0
    assert d["rgs"]["scan_p"] == 0.5


def test_drift_refusal_exits_3(capsys):
    # power-law's tail ratio r_hat is 1, so rho is 1 at every N
    code, out, _ = run(capsys, "drift", "--example", "power-law",
                       "--n", "10000")
    assert code == 3
    d = json.loads(out)
    assert d["certificate"] is None and d["reason"]


@pytest.mark.parametrize("command", ["classify", "drift"])
def test_lift_whose_gamma_rounds_to_1_is_certified(capsys, command):
    # 1 - gamma = min(s, 1 - s)(1 - sqrt(rho)) = 1.6e-17 is carried in
    # log10, so the lift is issued although gamma prints as 1.0
    code, out, err = run(capsys, command, "--spec", UNLIFTABLE_SPEC,
                         "--n", "154", "--scan-p", "1e-7")
    assert code == 0 and err == ""
    d = json.loads(out, parse_constant=_reject_constant)
    cert = d["certificate"] if command == "classify" else d
    assert cert["rgs"]["gamma"] == 1.0 and cert["rgs"]["scan_p"] == 1e-7
    assert cert["rgs"]["log10_one_minus_gamma"] == pytest.approx(
        math.log10(1e-7) + math.log10(-math.expm1(0.5 * math.log1p(
            -10.0 ** cert["log10_one_minus_rho"]))), abs=1e-12)
    assert -16.9 < cert["rgs"]["log10_one_minus_gamma"] < -16.7


def test_unlifted_certificate_is_geometric(capsys):
    code, out, _ = run(capsys, "classify", "--spec", UNLIFTABLE_SPEC, "--n", "154")
    assert code == 0 and json.loads(out)["verdict"] == "Geometric"
    code, out, _ = run(capsys, "drift", "--spec", UNLIFTABLE_SPEC, "--n", "154")
    assert code == 0 and json.loads(out)["rho"] < 1.0


@pytest.mark.parametrize("command", ["classify", "drift"])
def test_vacuous_certificate_is_refused(capsys, command):
    # a margin 1 - rho below float64's normal range, or a base z* that
    # rounds to 1, proves nothing float64 can state: the search refuses
    # it, naming the cause, and classify decides Geometric from the tail
    # limits alone
    for spec, reason in ((VACUOUS_SPEC, "underflows float64"),
                         (FLAT_SPEC, "rounds to 1.0 in float64")):
        code, out, err = run(capsys, command, "--spec", spec, "--n", "154")
        assert code == (0 if command == "classify" else 3) and err == ""
        d = json.loads(out, parse_constant=_reject_constant)
        assert d["certificate"] is None
        if command == "classify":
            assert (d["verdict"], d["basis"]) == ("Geometric", "ratio_test")
        else:
            assert reason in d["reason"]


@pytest.mark.parametrize("a, b", [([1.0], [1e-307]), ([1e-307], [1.0])])
@pytest.mark.parametrize("n", ["10", "200"])
def test_far_from_balanced_table_is_geometric_but_not_certified(capsys, a, b, n):
    # q_hat is about 1e-307, so the certificate's margin underflows:
    # classify decides from the tail limits, and drift says why it refuses
    spec = json.dumps({"kind": "table", "params": {"a": a, "b": b,
                                                   "tail_ratio": 0.5}})
    code, out, _ = run(capsys, "classify", "--spec", spec, "--n", n)
    d = json.loads(out)
    assert code == 0
    assert (d["verdict"], d["basis"], d["certificate"]) == ("Geometric",
                                                            "ratio_test", None)
    code, out, _ = run(capsys, "drift", "--spec", spec, "--n", n)
    assert code == 3 and "underflows float64" in json.loads(out)["reason"]


@pytest.mark.parametrize("a, b, log10_delta", [
    ([1.0], [1e-10], -11.7460), ([1e-10], [1.0], -12.0470)])
@pytest.mark.parametrize("n", ["10", "200"])
def test_far_from_balanced_table_is_certified(capsys, a, b, log10_delta, n):
    # q_hat is about 1e-10, so 1 - rho is about 1e-12: rho is 1 - delta to
    # float64's resolution, and log10_one_minus_rho states delta itself
    spec = json.dumps({"kind": "table", "params": {"a": a, "b": b,
                                                   "tail_ratio": 0.5}})
    code, out, _ = run(capsys, "drift", "--spec", spec, "--n", n)
    assert code == 0
    d = json.loads(out, parse_constant=_reject_constant)
    assert d["log10_one_minus_rho"] == pytest.approx(log10_delta, abs=1e-3)
    assert d["rho"] == pytest.approx(1.0 - 10.0 ** d["log10_one_minus_rho"],
                                     rel=0, abs=2.0 ** -53)
    code, out, _ = run(capsys, "classify", "--spec", spec, "--n", n)
    assert code == 0 and json.loads(out)["certificate"] == d


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_drift_refusal_with_infinite_tail_ratio_is_strict_json(capsys):
    # mixed-geometric's a_i / b_i = c e^i diverges: its limits m, M and
    # a_over_bprev are infinite, and q_hat = 0 leaves no certificate
    code, out, _ = run(capsys, "drift", "--n", "20", "--example", "mixed-geometric")
    assert code == 3
    d = json.loads(out, parse_constant=_reject_constant)
    assert d["certificate"] is None and d["q_hat"] == 0.0
    code, out, _ = run(capsys, "classify", "--n", "20", "--example", "mixed-geometric")
    assert code == 0
    q = json.loads(out, parse_constant=_reject_constant)["quantities"]
    assert q["m"] == q["M"] == q["a_over_bprev"] == "inf"


def test_spectrum_marginal(capsys):
    code, out, _ = run(capsys, "spectrum", "--example", "geometric",
                       "--n", "100")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"rate", "constant", "gap", "N"}
    assert d["gap"] == pytest.approx(1.0 - d["rate"], abs=1e-15)


def test_spectrum_dgs_refused(capsys):
    code, out, err = run(capsys, "spectrum", "--example", "geometric",
                         "--chain", "dgs", "--n", "50")
    assert code == 4 and out == ""
    assert err.startswith("error:")


def test_tvcurve_csv(capsys):
    code, out, _ = run(capsys, "tvcurve", "--example", "geometric",
                       "--n", "60", "--steps", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,tv" and len(lines) == 52
    tv = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(tv, tv[1:]))


def test_tvcurve_json(capsys):
    code, out, _ = run(capsys, "tvcurve", "--example", "geometric",
                       "--n", "60", "--steps", "120", "--format", "json",
                       "--chain", "rgs", "--start", "2,2")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"rate", "constant", "gap", "N"}
    assert 0.0 < d["rate"] < 1.0
    assert d["N"] == 60


@pytest.mark.parametrize("steps", ["400", "1000"])
def test_tvcurve_at_largest_n_transports_only_the_reachable_window(capsys, steps):
    # 1000 steps x 1 999 999 states is above the budget, but the transport
    # touches at most 4 001 states a step
    started = time.perf_counter()
    code, out, err = run(capsys, "tvcurve", "--example", "power-law",
                         "--chain", "dgs", "--n", "1000000", "--steps", steps,
                         "--format", "json")
    assert time.perf_counter() - started < 3.0
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["N"] == 1_000_000 and 0.0 < d["rate"] < 1.0


def test_dgs_tvcurve_budget_counts_the_marginal_states(capsys):
    # a dgs curve is transported on the x-marginal chain, N states on a
    # window that grows by 2 a step, and is budgeted like marginal_x: at
    # N = 10^6, 22 360 steps x 44 721 states fit in 10^9 state-steps and
    # 22 361 x 44 723 do not
    argv = ("tvcurve", "--example", "power-law", "--n", "1000000",
            "--format", "json", "--steps")
    for chain in ("dgs", "marginal_x"):
        code, out, err = run(capsys, *argv, "22361", "--chain", chain)
        assert code == 4 and out == ""
        assert err == ("error: --steps 22361 x 44723 states exceeds the tvcurve "
                       "budget of 1000000000 state-steps\n")
    code, out, err = run(capsys, *argv, "22360", "--chain", "dgs")
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["N"] == 1_000_000 and 0.0 < d["rate"] < 1.0


def test_subgeo_formats(capsys):
    code, out, _ = run(capsys, "subgeo", "--example", "mixed-geometric",
                       "--n", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,mu_i,T_i,S1_i,S2_i,S3_i" and len(lines) == 40

    code, out, _ = run(capsys, "subgeo", "--example", "mixed-geometric",
                       "--n", "40", "--format", "json", "--scan-p", "0.5")
    d = json.loads(out)
    assert d["diverging"]["S2"] is True
    assert d["scan_p"] == 0.5


def test_sample_csv_is_deterministic(capsys):
    argv = ("sample", "--example", "geometric", "--n", "50",
            "--steps", "200", "--seed", "12", "--thin", "4")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "step,x,y" and len(lines) == 51
    assert lines[1].split(",")[0] == "4"


def test_sample_rgs_with_start(capsys):
    code, out, _ = run(capsys, "sample", "--example", "geometric",
                       "--n", "50", "--chain", "rgs", "--start", "3,3",
                       "--steps", "20", "--scan-p", "0.4")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert len(cells) == 3 and cells[2] != ""


def test_sample_json_with_indicator(capsys):
    code, out, _ = run(capsys, "sample", "--example", "geometric",
                       "--n", "50", "--steps", "5000", "--seed", "1",
                       "--g-indicator", "2", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["kind"] == "marginal_x" and isinstance(d["final_state"], int)
    g = d["g"]
    assert 0.0 < g["g_bar"] < 1.0 and g["mcse"] > 0.0
    assert g["note"] == CLT_NOTE


@pytest.mark.parametrize("chain", ["marginal_x", "rgs"])
@pytest.mark.parametrize("thin", ["1", "3", "20"])
def test_sample_json_final_state_is_after_the_last_step(capsys, chain, thin):
    argv = ("sample", "--example", "power-law", "--steps", "10", "--seed", "0",
            "--chain", chain)
    _, csv_out, _ = run(capsys, *argv)
    last = [int(c) for c in csv_out.splitlines()[-1].split(",") if c]
    code, out, _ = run(capsys, *argv, "--thin", thin, "--format", "json")
    d = json.loads(out)
    assert code == 0 and last[0] == 10 and d["thin"] == int(thin)
    assert d["final_state"] == (last[1] if chain == "marginal_x" else last[1:])


def test_sample_json_without_steps_has_no_final_state(capsys):
    code, out, _ = run(capsys, "sample", "--example", "geometric",
                       "--steps", "0", "--format", "json")
    assert code == 0 and json.loads(out)["final_state"] is None


def test_sample_bad_start_exits_4(capsys):
    for chain, start in (("dgs", "5"), ("marginal_x", "2.5")):
        code, _, err = run(capsys, "sample", "--example", "geometric",
                           "--n", "50", "--chain", chain, "--start", start)
        assert code == 4 and err.startswith("error:")


MALFORMED_SPECS = {
    "str-param": {"kind": "geometric", "params": {"c": "x"}},
    "numeric-str-param": {"kind": "power_law", "params": {"d": "2", "c1": 1, "c2": 1}},
    "bool-param": {"kind": "geometric", "params": {"c": True}},
    "infinite-d": {"kind": "power_law", "params": {"d": float("inf"), "c1": 1, "c2": 1}},
    "params-not-object": {"kind": "geometric", "params": []},
    "table-entry-str": {"kind": "table", "params": {"a": [1.0, "x"], "b": [1.0]}},
    "table-not-array": {"kind": "table", "params": {"a": 5, "b": [1.0]}},
    "limit-str": {"kind": "geometric", "params": {"c": 1.0},
                  "declared_limits": {"A": "abc"}},
    "limits-not-object": {"kind": "geometric", "params": {"c": 1.0},
                          "declared_limits": [1]},
    "limit-negative": {"kind": "geometric", "params": {"c": 1},
                       "declared_limits": {"A": -5, "lim_ab": -3}},
    "limit-nan": {"kind": "geometric", "params": {"c": 1},
                  "declared_limits": {"A": "nan", "lim_ab": "nan"}},
    "limit-valid": {"kind": "geometric", "params": {"c": 1},
                    "declared_limits": {"A": 0.5}},
    "limits-null": {"kind": "table", "params": {"a": [1], "b": [1]},
                    "declared_limits": None},
    "kind-unknown": {"kind": "nope"},
    "kind-array": {"kind": []},
    "kind-object": {"kind": {}},
    "table-null": {"kind": "table", "params": {"a": None, "b": [1]}},
    "param-misspelled": {"kind": "table", "params": {"a": [1.0], "b": [1.0],
                                                      "tail_raito": 0.99}},
    "param-of-another-kind": {"kind": "geometric", "params": {"c": 1.0, "d": 2.0}},
    "key-unknown": {"kind": "geometric", "params": {"c": 1.0}, "scope": "tail"},
}


@pytest.mark.parametrize("argv", [
    *(("classify", "--spec", json.dumps(doc)) for doc in MALFORMED_SPECS.values()),
    ("classify", "--example", "power-law", "--scan-p", "1.5"),
    ("drift", "--example", "power-law", "--n", "10000", "--scan-p", "1.5"),
    ("subgeo", "--example", "geometric", "--scan-p", "1.5"),
    ("sample", "--example", "geometric", "--seed", "-1"),
    ("sample", "--example", "geometric", "--thin", "0", "--format", "json"),
    ("classify", "--spec", "[]"),
    ("classify", "--spec", ' "x"'),
], ids=[*MALFORMED_SPECS, "classify-scan-p", "drift-scan-p", "subgeo-scan-p",
        "sample-seed", "sample-json-thin",
        "spec-array", "spec-string"])
def test_domain_errors_exit_4(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "drift", "spectrum", "tvcurve",
                                     "subgeo", "sample", "report"])
def test_n_above_limit_exits_4_before_allocating(capsys, command):
    spec = [] if command == "report" else ["--example", "geometric"]
    started = time.perf_counter()
    code, out, err = run(capsys, command, *spec, "--n", "100000000",
                         *(["--steps", "1"] if command == "sample" else []))
    assert time.perf_counter() - started < 2.0
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("tvcurve", "--example", "geometric", "--steps", "100000000"),
    ("sample", "--example", "geometric", "--steps", "100000000"),
    ("tvcurve", "--example", "geometric", "--n", "200", "--steps", "10000000"),
    ("tvcurve", "--example", "geometric", "--n", "1000000", "--steps", "10000000"),
    ("tvcurve", "--example", "geometric", "--chain", "dgs", "--n", "200",
     "--steps", "10000000"),
], ids=["tvcurve-steps", "sample-steps", "tvcurve-work",
        "tvcurve-work-large-n", "tvcurve-work-dgs"])
def test_size_above_limit_exits_4_before_allocating(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 2.0
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", ["sample", "tvcurve"])
@pytest.mark.parametrize("steps", ["-1", "-1000000000"])
def test_negative_steps_get_one_refusal(capsys, command, steps):
    # refused before the tvcurve work budget, whose product of two negative
    # numbers would pass as a huge positive count of state-steps
    code, out, err = run(capsys, command, "--example", "geometric", "--steps", steps)
    assert code == 4 and out == ""
    assert err == f"error: --steps {steps} must be at least 0\n"


def test_spectrum_rgs_on_underflowing_table(capsys):
    # LAPACK's bisection failed to converge on this kernel's symmetrization
    spec = json.dumps({"kind": "table", "params": {
        "a": [1e-207, 1e-153], "b": [1e-207, 1e-118], "tail_ratio": 0.5}})
    code, out, err = run(capsys, "spectrum", "--spec", spec, "--n", "8",
                         "--chain", "rgs")
    assert code == 0 and err == ""
    d = json.loads(out, parse_constant=pytest.fail)
    assert 0.0 <= d["gap"] <= 1.0 and d["rate"] == 1.0 - d["gap"]


SPEC_COMMANDS = ("classify", "drift", "spectrum", "tvcurve", "subgeo", "sample")


def _power_law(d: float) -> str:
    return json.dumps({"kind": "power_law", "params": {"d": d, "c1": 1, "c2": 1}})


# d = 1e308: d log i overflows from i = 7, so log a_i is -inf; d = 5e307 at
# N = 10: the sequences stay finite but log a_i + log b_i overflows from i = 7
@pytest.mark.parametrize("d, n", [(1e308, "200"), (5e307, "10")])
@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_huge_power_law_exponent_exits_4_without_a_warning(capsys, command, d, n):
    code, out, err = run(capsys, command, "--spec", _power_law(d), "--n", n)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_subgeo_answers_on_the_finite_rows_of_a_huge_exponent(capsys):
    # log a_i is finite for i <= 6, and the statistics run over i = 2..N
    # only; the flags come from the limits (A = 1), not from the rows
    code, out, err = run(capsys, "subgeo", "--spec", _power_law(1e308),
                         "--n", "3", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out, parse_constant=pytest.fail)["diverging"]["S1"]


@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_raw_mass_above_the_float_maximum_is_a_valid_spec(capsys, command):
    # only ratios matter; the raw mass is about 3e308
    spec = json.dumps({"kind": "table", "params": {"a": [1e308, 1e308],
                                                   "b": [1e308]}})
    code, out, err = run(capsys, command, "--spec", spec)
    assert code == 0 and err == "" and out
    fam = ergochain.build_family(ergochain.SequenceSpec.from_json(spec), 200)
    assert fam.retained_mass == math.inf


def test_spec_file_not_utf8_exits_4(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe" + '{"kind": "geometric"}'.encode("utf-16-le"))
    code, out, err = run(capsys, "classify", "--spec", str(path))
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("n", ["2", "3"])
def test_subgeo_default_horizon_at_small_n(capsys, n):
    code, out, err = run(capsys, "subgeo", "--example", "geometric", "--n", n)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == int(n)   # header, i = 2..N


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0 and len(out.splitlines()) == 4

    code, out, _ = run(capsys, "examples", "--format", "json")
    names = [d["name"] for d in json.loads(out)]
    assert names == ["power-law", "geometric", "mixed-geometric", "alternating"]


def test_report_all_examples(capsys):
    code, out, _ = run(capsys, "report", "--n", "50")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    verdicts = [l.split()[2] for l in lines[1:]]
    assert verdicts == ["Subgeometric", "Geometric", "Subgeometric",
                        "Subgeometric"]


def test_table_rate_info_resolves_tiny_min_T(capsys):
    # 1 - min_T rounds to 1 here, so the norm bound alone would print 1
    code, out, _ = run(capsys, "report", "--examples", "mixed-geometric,alternating")
    assert code == 0
    for row in out.splitlines()[1:]:
        info = row.split()[-1]
        assert info.startswith("min_T=") and 0.0 < float(info[6:]) < 1e-80


def test_rate_info_prints_an_underflowed_min_T_from_its_log(capsys):
    # min_T is 10^-867.88 and 10^-868.45 here: 0.0 as a float
    code, out, _ = run(capsys, "report", "--n", "2000")
    assert code == 0
    rows = {row.split()[0]: row.split()[-1] for row in out.splitlines()[1:]}
    assert rows["mixed-geometric"] == "min_T=1.31e-868"
    assert rows["alternating"] == "min_T=3.53e-869"


def test_rate_info_prints_a_subnormal_min_T_from_its_log(capsys):
    # min_T = 10^-320.67 is subnormal: as a float it reads 2.134e-321
    code, out, _ = run(capsys, "classify", "--example", "mixed-geometric",
                       "--n", "740", "--format", "table")
    assert code == 0 and out.splitlines()[1].endswith("min_T=2.14e-321")


def test_subgeo_json_carries_log10_min_T(capsys):
    code, out, _ = run(capsys, "subgeo", "--example", "mixed-geometric",
                       "--n", "2000", "--format", "json")
    d = json.loads(out)
    assert code == 0 and d["min_T"] == 0.0
    assert d["log10_min_T"] == pytest.approx(-867.8815, abs=1e-4)


def test_report_subset_json(capsys):
    code, out, _ = run(capsys, "report", "--examples", "geometric",
                       "--n", "50", "--format", "json")
    assert code == 0
    arr = json.loads(out)
    assert len(arr) == 1 and arr[0]["label"] == "geometric"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "classify", "--example", "geometric",
                       "--n", "50", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "Geometric"


@pytest.mark.parametrize("argv", [
    ["classify", "--example", "geometric", "--n", "50"],
    ["drift", "--example", "power-law", "--n", "2000"],
    ["spectrum", "--example", "geometric", "--chain", "rgs", "--n", "50"],
    ["tvcurve", "--example", "power-law", "--n", "50", "--steps", "40"],
    ["subgeo", "--example", "mixed-geometric", "--n", "50", "--format", "json"],
    ["sample", "--example", "geometric", "--n", "50", "--steps", "200",
     "--g-indicator", "2"],
    ["examples"],
    ["report", "--examples", "geometric,power-law", "--n", "50"],
], ids=lambda argv: argv[0])
def test_out_holds_exactly_what_stdout_prints(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv)
    target = tmp_path / "out"
    code_out, out_out, err_out = run(capsys, *argv, "--out", str(target))
    assert code == (3 if argv[0] == "drift" else 0)
    assert (code_out, out_out, err_out) == (code, "", err)
    assert target.read_bytes() == out.encode() and out


def test_out_is_not_created_by_a_failing_command(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, "sample", "--example", "geometric",
                         "--thin", "0", "--out", str(target))
    assert code == 4 and out == "" and err.startswith("error:")
    assert not target.exists()
    code, out, err = run(capsys, "examples", "--out",
                         str(tmp_path / "missing" / "out.txt"))
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["classify"])                      # no spec source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["classify", "--example", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["subgeo", "--example", "geometric", "--horizon", "100"])
    assert exc.value.code == 2                      # not an option
    capsys.readouterr()
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "classify", "--spec", missing)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


# -- no command loads scipy --------------------------------------------------

# Run in a fresh interpreter: prints the exit codes of the commands and
# the scipy modules loaded before and after them.
_FRESH = """
import contextlib, io, json, sys
import ergochain
from ergochain import build_Pdgs, build_Prgs, build_Px, build_family, example_spec
from ergochain.cli import dispatch

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

fam = build_family(example_spec("power-law"), 50)
for tm in (build_Px(fam), build_Pdgs(fam), build_Prgs(fam, 0.5)):
    tm.P.sum(axis=1), tm.P.T @ tm.stationary, tm.P.nnz
before = scipy_modules()
with (contextlib.redirect_stdout(io.StringIO()),
      contextlib.redirect_stderr(io.StringIO())):
    codes = [dispatch(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


def _fresh_run(*argvs, script=_FRESH):
    src = str(Path(ergochain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_commands_leave_scipy_unloaded():
    # spectral gaps are solved with numpy alone, and a module-level scipy
    # import anywhere would put its import time on every command
    n = ["--n", "50"]
    table_spec = json.dumps({"kind": "table", "params": {
        "a": [1.0, 0.5], "b": [0.5, 0.25], "tail_ratio": 0.5}})
    res = _fresh_run(
        ["classify", "--example", "power-law", *n],
        ["drift", "--example", "geometric", "--scan-p", "0.5", *n],
        ["subgeo", "--example", "power-law", "--scan-p", "0.5", *n],
        ["tvcurve", "--example", "power-law", "--chain", "dgs", "--steps", "50", *n],
        ["sample", "--example", "power-law", "--chain", "rgs", "--steps", "500",
         "--g-indicator", "2", "--format", "json", *n],
        ["report", *n],
        ["examples"],
        ["spectrum", "--example", "geometric", "--chain", "dgs", *n],
        ["spectrum", "--example", "geometric", "--chain", "marginal_x", *n],
        ["spectrum", "--example", "geometric", "--chain", "rgs", *n],
        ["spectrum", "--spec", table_spec, "--chain", "rgs", *n],
    )
    assert res["codes"] == [0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0]
    assert res["before"] == [] and res["after"] == []


def test_no_module_imports_scipy():
    # scipy is a test extra; no module of the package imports it, at the
    # top or inside a function
    for path in sorted(Path(ergochain.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], path


# Run in a fresh interpreter: whether ergochain.kernels is loaded after
# importing the modules classify, drift and sample use, and after those
# commands.
_FRESH_NO_KERNELS = """
import contextlib, io, json, sys
import ergochain.classify, ergochain.samplers
from ergochain.cli import dispatch

imported = "ergochain.kernels" in sys.modules
with (contextlib.redirect_stdout(io.StringIO()),
      contextlib.redirect_stderr(io.StringIO())):
    codes = [dispatch(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "before": imported,
                  "after": "ergochain.kernels" in sys.modules}))
"""


def test_classify_drift_and_sample_leave_kernels_unloaded():
    # the staircase order and the chain's support live in family, so these
    # commands build no kernel and load none of the kernels module
    res = _fresh_run(
        ["classify", "--example", "geometric", "--scan-p", "0.5"],
        ["classify", "--example", "power-law", "--scan-p", "0.5"],
        ["drift", "--example", "geometric", "--scan-p", "0.5"],
        ["drift", "--example", "power-law"],
        ["sample", "--example", "geometric", "--chain", "rgs", "--steps", "500",
         "--g-indicator", "2", "--format", "json"],
        ["sample", "--example", "geometric", "--start", "3"],
        ["report", "--n", "50"],
        script=_FRESH_NO_KERNELS)
    assert res == {"codes": [0, 0, 0, 3, 0, 0, 0], "before": False, "after": False}


# -- refusals the text of the spec or of one argument decides ----------------

# Run in a fresh interpreter: for each command in turn, its exit code, its
# stderr lines and whether numpy has been imported by then.
_FRESH_NO_NUMPY = """
import contextlib, io, json, sys
from ergochain.cli import dispatch

res = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    res.append([code, err.getvalue().splitlines(), "numpy" in sys.modules])
print(json.dumps(res))
"""


# Run as `python -m ergochain.cli`: the modules loaded from just before
# the CLI module runs until it exits, written as the last stderr line
_FRESH_CLI = """
import runpy, sys
sys.argv[0] = "ergochain"
before = set(sys.modules)
try:
    runpy.run_module("ergochain.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(f"\\n{code} " + " ".join(sorted(set(sys.modules) - before)) + "\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("argv,code", [
    (["examples"], 0),
    (["--help"], 0),
    (["classify", "--spec", "missing.json"], 2),
    (["sample", "--example", "geometric", "--start", "2.5"], 4),
    (["classify", "--spec", '{"kind": "geometric", "params": {"c": "x"}}'], 4),
    (["classify", "--example", "geometric", "--scan-p", "1.5"], 4),
    (["spectrum", "--example", "geometric", "--chain", "dgs"], 4),
    (["sample", "--example", "geometric", "--steps", "-1"], 4),
    (["tvcurve", "--example", "geometric", "--steps", "-1000000000"], 4),
], ids=["examples", "help", "missing-spec-file", "sample-start", "spec-param",
        "scan-p", "spectrum-dgs", "sample-steps", "tvcurve-steps"])
def test_cli_refusals_load_no_numpy_dataclasses_or_inspect(tmp_path, argv, code):
    # the listing, the help and the argument-decided refusals the benchmark's
    # cli-mix sends, each in a fresh interpreter
    src = str(Path(ergochain.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    got, *added = proc.stderr.splitlines()[-1].split()
    assert int(got) == code == proc.returncode
    assert {"argparse", "ergochain.spec"} <= set(added)
    assert not {"numpy", "dataclasses", "inspect"} & set(added)


def test_text_decided_refusals_leave_numpy_unloaded(tmp_path):
    geo = ["--example", "geometric"]
    bad_param = json.dumps({"kind": "geometric", "params": {"c": "x"}})
    res = _fresh_run(
        ["examples"],
        ["--help"],
        ["sample", *geo, "--start", "2.5"],
        ["sample", *geo, "--thin", "0"],
        ["sample", *geo, "--seed", "-1"],
        ["sample", *geo, "--steps", "-1"],
        ["tvcurve", *geo, "--steps", "-1"],
        ["spectrum", *geo, "--chain", "dgs"],
        ["classify", *geo, "--scan-p", "1.5"],
        ["classify", "--spec", str(tmp_path / "missing.json")],
        ["classify", "--spec", bad_param],
        script=_FRESH_NO_NUMPY)
    assert [code for code, _, _ in res] == [0, 0, 4, 4, 4, 4, 4, 4, 4, 2, 4]
    assert [err for _, err, _ in res[:2]] == [[], []]
    for _, err, _ in res[2:]:
        assert len(err) == 1 and err[0].startswith("error:")
    assert not any(numpy for _, _, numpy in res)


def test_n_below_the_tail_minimum_is_refused_before_numpy(capsys):
    # classify, drift and report refuse an --n below MIN_N, and --n alone
    # decides it; the other commands, and the library, accept a small N
    cmds = (("classify", ["--example", "geometric"]),
            ("drift", ["--example", "geometric"]), ("report", []))
    res = _fresh_run(*[[cmd, *args, "--n", n] for cmd, args in cmds
                       for n in ("2", "5", "9")], script=_FRESH_NO_NUMPY)
    assert res == [[4, [f"error: --n {n} is below {MIN_N}, the smallest "
                        f"truncation level {cmd} accepts"], False]
                   for cmd, _ in cmds for n in ("2", "5", "9")]
    code, _, _ = run(capsys, "drift", "--example", "geometric", "--n", str(MIN_N))
    assert code == 0


@pytest.mark.parametrize("n", ["10", "30", "50", "200"])
def test_drift_refuses_the_truncated_power_law(capsys, n):
    # the spec's tail ratio is exactly 1; truncated at N the chain's own
    # ratios stay below it (0.95877 at N = 50, 0.98992 at 200)
    code, out, _ = run(capsys, "drift", "--example", "power-law", "--n", n)
    assert code == 3
    d = json.loads(out, parse_constant=_reject_constant)
    assert d["certificate"] is None and d["r_hat"] == 1.0
    assert "S1" in d["reason"]


# -- spec fuzz: every JSON object gets an answer or one refusal ---------------

_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.floats(), max_size=3), st.dictionaries(st.text(max_size=3),
                                                       st.floats(), max_size=2))
# each param's values: in range mostly, anything at all one time in eight
_PARAMS = {"d": st.floats(1.01, 5.0), "c": st.floats(1e-3, 1e3),
           "c1": st.floats(1e-3, 1e3), "c2": st.floats(1e-3, 1e3),
           "a": st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=4),
           "b": st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=4),
           "tail_ratio": st.floats(0.01, 0.99999)}
_KIND_NAMES = {"power_law": ("d", "c1", "c2"), "table": ("a", "b", "tail_ratio")}


@st.composite
def _spec_docs(draw):
    """A spec JSON object, valid or wrong in any of its parts."""
    def rarely(strategy, other):
        return draw(other if draw(st.integers(0, 7)) == 0 else strategy)

    kind = rarely(st.sampled_from(ergochain.spec.KINDS),
                  st.sampled_from(["nope", ""]) | _ANY)
    names = _KIND_NAMES.get(kind, ("c",)) if isinstance(kind, str) else ("c",)
    params = {k: rarely(_PARAMS[k], _ANY) for k in names
              if draw(st.integers(0, 7))}
    if not draw(st.integers(0, 7)):     # a key that this kind may not read
        params[draw(st.sampled_from(["tail_raito", "c", "d", ""]))] = draw(_ANY)
    doc = {"kind": kind, "params": rarely(st.just(params), _ANY)}
    if not draw(st.integers(0, 7)):
        doc["declared_limits"] = draw(_ANY | st.just({"A": 0.5}))
    if not draw(st.integers(0, 15)):
        doc["scope"] = draw(_ANY)
    return doc


def _reads_every_key(doc):
    """Whether every key of a spec document is one its kind reads."""
    params, kind = doc["params"], doc["kind"]
    names = _KIND_NAMES.get(kind, ("c",)) if isinstance(kind, str) else ()
    return set(doc) <= {"kind", "params"} and (not isinstance(params, dict)
                                                or set(params) <= set(names))


_SCAN_PS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0,
                            5e-324, 2.2250738585072014e-308]) | st.floats()


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(-5, 60), st.none() | _SCAN_PS, st.sampled_from(["json", "csv"]))
def test_subgeo_argument_fuzz_answers_or_refuses_once(n, scan_p, fmt):
    out, err = io.StringIO(), io.StringIO()
    scan = [] if scan_p is None else [f"--scan-p={scan_p!r}"]
    argv = ["subgeo", "--example", "geometric", "--n", str(n), *scan,
            "--format", fmt]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    except SystemExit as exc:          # argparse's usage error
        assert exc.code == 2
        return
    assert code in (0, 4)
    if code == 4:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        return
    assert err.getvalue() == "" and n >= 2
    assert scan_p is None or 0.0 < scan_p < 1.0
    if fmt == "json":
        d = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert d["N"] == n and d["scan_p"] == scan_p
    else:
        assert len(out.getvalue().splitlines()) == n


_HARNESS_ENTRY = st.floats(-3.0, 3.0).map(lambda v: float(f"{math.exp(v):.6g}"))
# the built-ins, and random tables drawn like perfbench's harness.table_spec
_DRIFT_SPECS = (st.sampled_from([["--example", n] for n in ergochain.example_names()])
                | st.builds(lambda a, b, r: ["--spec", table(a, b, r).to_json()],
                            st.lists(_HARNESS_ENTRY, min_size=1, max_size=5),
                            st.lists(_HARNESS_ENTRY, min_size=1, max_size=5),
                            st.floats(0.3, 0.8)))
_DRIFT_SCAN_PS = st.sampled_from([5e-324, 1e-300, 1.0 - 2.0 ** -53, 0.0, 1.0,
                                  math.nan, math.inf]) | st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(["classify", "drift"]), _DRIFT_SPECS, st.integers(10, 2000),
       st.none() | _DRIFT_SCAN_PS)
def test_drift_and_classify_argument_fuzz_answers_or_refuses_once(command, spec, n,
                                                                   scan_p):
    out, err = io.StringIO(), io.StringIO()
    scan = [] if scan_p is None else [f"--scan-p={scan_p!r}"]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch([command, *spec, "--n", str(n), *scan])
    except SystemExit as exc:          # argparse's usage error
        assert exc.code == 2
        return
    if code == 4:
        assert out.getvalue() == "" and not 0.0 < scan_p < 1.0
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        return
    assert err.getvalue() == ""
    d = json.loads(out.getvalue(), parse_constant=_reject_constant)
    if command == "classify":
        assert code == 0 and d["N"] == n
        return
    if code == 3:
        # a flag fires, or 1 - rho underflows
        assert d["certificate"] is None
        assert any(k in d["reason"] for k in ("S1", "S2", "S3", "underflows"))
        return
    assert code == 0 and d["N"] == n
    assert math.isfinite(d["log10_one_minus_rho"]) and d["log10_one_minus_rho"] < 0
    if scan_p is not None:
        g = d["rgs"]["log10_one_minus_gamma"]
        assert math.isfinite(g) and g < 0 and d["rgs"]["scan_p"] == scan_p


# each command's own options, and the values drawn for them: mostly in
# range, and one time in eight out of range, above the size limits
# (refused before any work) or text argparse cannot parse. --n stays at
# most 300 and --steps at most 2 000
_OWN_OPTIONS = {
    "spectrum": ("n", "scan-p", "chain"),
    "tvcurve": ("n", "steps", "start", "scan-p", "chain", "format"),
    "sample": ("n", "steps", "seed", "start", "thin", "scan-p", "g-indicator",
               "chain", "format"),
    "report": ("examples", "n", "scan-p", "format"),
}
_FORMATS = {"tvcurve": ["csv", "json"], "sample": ["csv", "json"],
            "report": ["table", "json"]}
_OPTION_VALUES = {      # (usual, odd)
    "n": (st.integers(2, 300), st.sampled_from([-3, 0, 1, MAX_N + 1, "1e3", "x"])),
    "steps": (st.integers(0, 2000), st.sampled_from([-3, -1, MAX_STEPS + 1, "2.5"])),
    "seed": (st.integers(0, 2 ** 70), st.sampled_from([-3, -1, "x"])),
    "start": (st.integers(1, 300) | st.builds(lambda y, d: f"{y + d},{y}",
                                              st.integers(1, 300), st.integers(0, 1)),
              st.sampled_from([-1, 0, 310, "", "1,2,3", "a,b", "1.5", "0,0"])),
    "thin": (st.integers(1, 50), st.integers(-2, 0)),
    "scan-p": (st.floats(0.0, 1.0), _SCAN_PS),
    "g-indicator": (st.integers(1, 300), st.integers(-5, 0)),
    "chain": (st.sampled_from(["marginal_x", "dgs", "rgs"]), st.just("gibbs")),
    "examples": (st.sampled_from(["all", "geometric,power-law"]),
                 st.sampled_from(["alternating,", "nope", ""])),
}


@st.composite
def _own_argv(draw):
    """A command of spectrum, tvcurve, sample and report, with any subset
    of its own options."""
    command = draw(st.sampled_from(sorted(_OWN_OPTIONS)))
    argv, given_ = [command], {}
    if command != "report":
        argv += ["--example", draw(st.sampled_from(ergochain.example_names()))]
    for name in _OWN_OPTIONS[command]:
        if draw(st.booleans()):
            usual, odd = ((st.sampled_from(_FORMATS[command]), st.just("xml"))
                          if name == "format" else _OPTION_VALUES[name])
            given_[name] = str(draw(odd if draw(st.integers(0, 7)) == 0 else usual))
            argv.append(f"--{name}={given_[name]}")
    return command, argv, given_


@settings(max_examples=150, deadline=None, database=None)
@given(_own_argv())
def test_other_commands_argument_fuzz_answers_or_refuses_once(case):
    command, argv, given_ = case
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    except SystemExit as exc:          # argparse's usage error
        assert exc.code == 2
        return
    if code == 4:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        return
    assert code == 0 and err.getvalue() == "" and out.getvalue()
    n = int(given_.get("n", 200))
    assert 2 <= n <= MAX_N and (command != "report" or n >= MIN_N)
    assert 0 <= int(given_.get("steps", 0)) <= MAX_STEPS
    if command == "spectrum" or given_.get("format") == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# a_i = b_i = 1 up to i = 6 000: the drift bound's constant L = e^863
# overflows float64, and the certificate's JSON encodes it as "inf"
_FLAT_SPEC = json.dumps({"kind": "table", "params": {
    "a": [1.0] * 6000, "b": [1.0] * 6000, "tail_ratio": 0.5}})


@pytest.mark.parametrize("command", ["drift", "classify"])
def test_drift_constants_that_overflow_read_inf(capsys, command):
    code, out, err = run(capsys, command, "--spec", _FLAT_SPEC, "--n", "8000",
                         "--scan-p", "0.5")
    assert code == 0 and err == ""
    d = json.loads(out, parse_constant=_reject_constant)
    cert = d["certificate"] if command == "classify" else d
    assert cert["x0"] == 6000 and cert["log_L"] == pytest.approx(863.05, abs=0.01)
    assert cert["L"] == "inf" and cert["rgs"]["bound_constant"] == "inf"


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from(["classify", "drift", "subgeo"]), _spec_docs(),
       st.integers(10, 60), st.sampled_from([[], ["--scan-p", "0.5"]]))
def test_spec_fuzz_answers_or_refuses_once(command, doc, n, scan):
    out, err = io.StringIO(), io.StringIO()
    fmt = ["--format", "json"] if command == "subgeo" else []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch([command, "--spec", json.dumps(doc), "--n", str(n), *scan,
                         *fmt])
    assert code in ((0, 4) if command == "classify" else (0, 3, 4))
    assert code == 4 or _reads_every_key(doc)
    if code == 4:
        assert out.getvalue() == "" and "Traceback" not in err.getvalue()
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_reject_constant)

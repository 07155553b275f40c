"""Command line behavior: exit codes, formats, and file output."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ergochain
from ergochain import table
from ergochain.cli import dispatch
from ergochain.diagnostics import CLT_NOTE

INCONCLUSIVE_SPEC = table((1.0,), (1.0,), tail_ratio=0.999).to_json()
# certifies with rho within ulps of 1, so no lift to the random scan fits
# in float64: gamma rounds to 1.0 at scan probability 0.871
UNLIFTABLE_SPEC = json.dumps({"kind": "table", "params": {
    "a": [1.2602965398145352e-38, 2.6507480257709705e-267,
          3.70335196283661e-135, 3.0989551395265743e-125],
    "b": [8.734113359284468e-165, 3.831735966407416e-299,
          1.155024330605395e-179, 1.141077950296553e-112],
    "tail_ratio": 0.7686484683596883}})


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


def test_classify_inconclusive_exits_3(capsys):
    code, out, _ = run(capsys, "classify", "--spec", INCONCLUSIVE_SPEC,
                       "--n", "60")
    assert code == 3
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_classify_spec_from_file(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(INCONCLUSIVE_SPEC)
    code, out, _ = run(capsys, "classify", "--spec", str(path), "--n", "60")
    assert code == 3
    assert json.loads(out)["label"] == "spec"


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
    # at this depth the tail ratio estimate crosses the refusal threshold
    code, out, _ = run(capsys, "drift", "--example", "power-law",
                       "--n", "10000")
    assert code == 3
    d = json.loads(out)
    assert d["certificate"] is None and d["reason"]


@pytest.mark.parametrize("command", ["classify", "drift"])
def test_unrepresentable_lift_is_undecided(capsys, command):
    code, out, err = run(capsys, command, "--spec", UNLIFTABLE_SPEC,
                         "--n", "154", "--scan-p", "0.871")
    assert code == 3 and err == ""
    d = json.loads(out, parse_constant=_reject_constant)
    assert d["certificate"] is None
    if command == "classify":
        assert d["verdict"] == "Inconclusive"
    else:
        assert "lift" in d["reason"]


def test_unlifted_certificate_is_geometric(capsys):
    code, out, _ = run(capsys, "classify", "--spec", UNLIFTABLE_SPEC, "--n", "154")
    assert code == 0 and json.loads(out)["verdict"] == "Geometric"
    code, out, _ = run(capsys, "drift", "--spec", UNLIFTABLE_SPEC, "--n", "154")
    assert code == 0 and json.loads(out)["rho"] < 1.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_drift_refusal_with_infinite_tail_ratio_is_strict_json(capsys):
    # tail weights alternate with 1e-320, so the tail ratio overflows
    spec = table(tuple([1, 1e-320] * 10), tuple([1, 1e-320] * 10),
                 tail_ratio=0.5).to_json()
    code, out, _ = run(capsys, "drift", "--n", "20", "--spec", spec)
    assert code == 3
    d = json.loads(out, parse_constant=_reject_constant)
    assert d["certificate"] is None and d["r_hat"] == "inf"


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
    "kind-unknown": {"kind": "nope"},
    "kind-array": {"kind": []},
    "kind-object": {"kind": {}},
    "table-null": {"kind": "table", "params": {"a": None, "b": [1]}},
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
    ("subgeo", "--example", "geometric", "--horizon", "1000000000"),
    ("tvcurve", "--example", "geometric", "--n", "200", "--steps", "10000000"),
    ("tvcurve", "--example", "geometric", "--n", "1000000", "--steps", "10000000"),
    ("tvcurve", "--example", "geometric", "--chain", "dgs", "--n", "100",
     "--steps", "10000000"),
], ids=["tvcurve-steps", "sample-steps", "subgeo-horizon", "tvcurve-work",
        "tvcurve-work-large-n", "tvcurve-work-dgs"])
def test_size_above_limit_exits_4_before_allocating(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 2.0
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


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


def test_subgeo_refuses_a_horizon_past_the_finite_sequence(capsys):
    # N = 3 is finite, but the statistics run to horizon 16, past i = 7
    code, out, err = run(capsys, "subgeo", "--spec", _power_law(1e308),
                         "--n", "3")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


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
    # the default horizon 4N is floored at the statistics' minimum of 16
    code, out, err = run(capsys, "subgeo", "--example", "geometric", "--n", n,
                         "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["horizon"] == 16
    code, out, _ = run(capsys, "subgeo", "--example", "geometric", "--n", n)
    assert code == 0 and len(out.splitlines()) == int(n)   # header, i = 2..N


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


def test_rate_info_from_older_json_without_log10_min_T():
    v = ergochain.ErgodicityVerdict(
        verdict="Subgeometric", basis="divergence:S2",
        evidence="numeric-estimates", N=2000, scan_p=None, quantities={},
        subgeo_summary={"min_T": 0.0}, label="old")
    assert ergochain.verdict_report([v]).splitlines()[1].endswith("min_T=0")


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
build_Px(fam), build_Pdgs(fam), build_Prgs(fam, 0.5)
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

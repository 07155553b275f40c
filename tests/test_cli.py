"""Command line behavior: exit codes, formats, and file output."""

import json

import pytest

from ergochain import table
from ergochain.cli import dispatch
from ergochain.diagnostics import CLT_NOTE

INCONCLUSIVE_SPEC = table((1.0,), (1.0,), tail_ratio=0.999).to_json()


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
}


@pytest.mark.parametrize("argv", [
    *(("classify", "--spec", json.dumps(doc)) for doc in MALFORMED_SPECS.values()),
    ("classify", "--example", "power-law", "--scan-p", "1.5"),
    ("subgeo", "--example", "geometric", "--scan-p", "1.5"),
], ids=[*MALFORMED_SPECS, "classify-scan-p", "subgeo-scan-p"])
def test_domain_errors_exit_4(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


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

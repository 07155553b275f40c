"""Smoke test of the benchmark itself, at small sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit by
every workload, in timed and traced runs; that a request whose answer is
wrong is counted as failed and makes the run incorrect; and that the
benchmark refuses, without a result, to run where there are no sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import harness as H
import run


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        raise SystemExit(1)


def metrics_emitted(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            _, result = run.measure(w["name"], 7, 0.1, trace, small=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            expect(set(got) == set(want), f"{w['name']} trace={int(trace)}: "
                   f"metrics are exactly the {key} list")
            expect(all(got[k]["unit"] == u and math.isfinite(got[k]["value"])
                       for k, u in want.items()),
                   f"{w['name']} trace={int(trace)}: units match, values finite")
            expect(result["attempted"] >= 1 and result["correct"],
                   f"{w['name']} trace={int(trace)}: attempted "
                   f"{result['attempted']}, failed {result['failed']}, correct")


def injected_request_fails() -> None:
    import cli_mix

    plan = cli_mix.build(7, small=True)
    argv = ["classify", "--example", "geometric", "--scan-p", "1.5"]
    # judged as a well-formed classify request, its exit code 4 is a failure
    wrong = cli_mix.Request(argv, plan.oracles.classify("geometric", "Geometric"))
    right = cli_mix.Request(argv, cli_mix.malformed)
    plan.reqs = [wrong, right]
    out = H.run_passes(lambda k: plan.ops(None), 0.0)
    expect(out.attempted == 2 and out.failed == 1 and out.unexpected == [wrong.id],
           "an injected bad request is counted as failed and not as known")


def refuses_without_sources() -> None:
    bare = H.ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(H.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(H.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "simulate", "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(p.returncode != 0 and p.stdout == "",
           "exits non-zero with no result where there are no sources")


def main() -> None:
    H.configure_process()
    spec = json.loads((H.ROOT / "BENCHMARK.json").read_text())
    metrics_emitted(spec)
    injected_request_fails()
    refuses_without_sources()


if __name__ == "__main__":
    main()

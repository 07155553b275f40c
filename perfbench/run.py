"""ergochain benchmark.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 15 --trace 0

Runs one workload (cli-mix, kernels-large or simulate) from the root of a
source checkout, in whole passes until --seconds have passed, and checks
every answer against a reference written here. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate,
span-traced run. The last line of standard output is the result object;
the line before it carries sample counts, failures, the machine and the
per-call timings. Both are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness as H

WORKLOADS = ("cli-mix", "kernels-large", "simulate")
SETUP_REPEATS = 5
FRESH_REPEATS = 3
OVERHEAD_REPEATS = 5


def workload_module(name: str):
    import cli_mix
    import kernels_large
    import simulate

    return {"cli-mix": cli_mix, "kernels-large": kernels_large,
            "simulate": simulate}[name]


def end_to_end(outcome: H.Outcome, setup: list) -> dict:
    return {
        "setup_s": H.metric(statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": H.metric(H.peak_rss_mb(), "MB", 1),
        "pass_wall_s": H.metric(outcome.fastest_pass(), "s", len(outcome.walls)),
    }


def figures(plan, outcome: H.Outcome) -> dict:
    """Latency and throughput figures of the timed run, for the detail line."""
    tail_value, pct = H.tail(outcome.walls)
    n = len(outcome.walls)
    out = {
        "op_p50_s": H.metric(statistics.median(outcome.walls), "s", n),
        f"op_p{pct:.0f}_s": H.metric(tail_value, "s", n),
        "pass_wall_median_s": H.metric(statistics.median(outcome.pass_walls),
                                       "s", len(outcome.pass_walls)),
        "fail_frac": H.metric(outcome.failed / outcome.attempted, "ratio",
                              outcome.attempted),
    }
    out.update(plan.figures(outcome))
    return out


def per_layer(tracer: H.Tracer, passes: int, interp: list, imported: list,
              overhead: float) -> dict:
    c = tracer.counts
    durations = tracer.durations()
    per_pass = 1.0 / passes
    out = {}
    for layer, busy in tracer.self_times().items():
        out[f"{layer}.self_s"] = H.metric(busy * per_pass, "s", passes)

    def rate(count_key, prefix):
        busy = sum(sum(v) for k, v in durations.items() if k.startswith(prefix))
        n = sum(len(v) for k, v in durations.items() if k.startswith(prefix))
        return H.metric(c[count_key] / busy, "1/s", n)

    def frac(num, den):
        return H.metric(c[num] / c[den], "ratio", c[den])

    out.update({
        "cli.interp_start_s": H.metric(statistics.median(interp), "s", len(interp)),
        "cli.import_s": H.metric(statistics.median(imported) - statistics.median(interp),
                                 "s", len(imported)),
        "presets.example_spec_s": H.metric(H.uncached_example_spec_s(), "s", 5),
        "kernels.nnz": H.metric(c["kernels.nnz"] * per_pass, "count", passes),
        "kernels.tv_curve.state_steps": H.metric(
            c["kernels.tv_curve.state_steps"] * per_pass, "count", passes),
        "kernels.tv_curve.computed_bytes": H.metric(
            c["kernels.tv_curve.computed_bytes"] * per_pass, "B", passes),
        "kernels.gap_unresolved_frac": frac("kernels.gaps_unresolved", "kernels.gaps"),
        "drift.certified_frac": frac("drift.certified", "drift.searches"),
        "classify.decided_frac": frac("classify.decided", "classify.calls"),
        "samplers.steps_per_s": rate("samplers.run_chain.steps",
                                     "samplers.run_chain"),
        "samplers.ensemble_chain_steps_per_s": rate(
            "samplers.ensemble.chain_steps", "samplers.run_marginal_ensemble"),
        "trace.overhead_s": H.metric(overhead, "s", OVERHEAD_REPEATS),
    })
    return out


def tracing_overhead() -> float:
    """Median traced minus median untraced wall time of the layer probe."""
    plain, tracer = H.api(None), H.Tracer()
    traced = H.api(tracer)
    a, b = [], []
    for _ in range(OVERHEAD_REPEATS):
        t0 = time.perf_counter()
        H.probe(plain, None)
        a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        H.probe(traced, tracer)
        b.append(time.perf_counter() - t0)
    return statistics.median(b) - statistics.median(a)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> tuple[dict, dict]:
    """(detail, result) of one run; small shrinks every size for the self-test."""
    import ergochain  # noqa: F401  (import cost stays out of the timed region)

    plan = workload_module(workload).build(seed, small)

    if not trace:
        fns = H.api(None)
        setup = H.SpreadSampler(H.setup_code(plan.resolve),
                                2 if small else SETUP_REPEATS, seconds)
        outcome = H.run_passes(lambda k: plan.ops(fns), seconds, setup)
        metrics = end_to_end(outcome, setup.finish())
        extra = figures(plan, outcome)
        spans = None
    else:
        interp = H.time_fresh("pass", FRESH_REPEATS)
        imported = H.time_fresh("import ergochain", FRESH_REPEATS)
        overhead = tracing_overhead()
        tracer = H.Tracer()
        fns = H.api(tracer)

        def tagged(op):
            run = op.run

            def run_with_request():
                tracer.request = op.id
                return run()
            op.run = run_with_request
            return op

        def traced_pass(k):
            tracer.request = f"probe {k}"
            H.probe(fns, tracer)
            return [tagged(op) for op in plan.ops(fns, tracer)]

        with H.traced_cli(tracer):
            outcome = H.run_passes(traced_pass, seconds)
        metrics = per_layer(tracer, len(outcome.pass_walls), interp, imported,
                            overhead)
        extra = {}
        spans = tracer.spans

    passes = len(outcome.pass_walls)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": passes,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "fail_frac": outcome.failed / outcome.attempted,
        "figures": extra,
        "failures": {k: {"count": n, "reason": r, "known_defect": known}
                     for k, (n, r, known) in outcome.failures.items()},
        "metrics": metrics,
        "environment": H.environment(),
        "operations": list(zip(outcome.ids, outcome.walls)),
    }
    if spans is not None:
        detail["span_medians_s"] = {name: H.metric(statistics.median(v), "s", len(v))
                                    for name, v in sorted(tracer.durations().items())}
        detail["spans"] = spans
    result = {
        "correct": not outcome.unexpected,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (H.SRC / "ergochain" / "__init__.py").is_file():
        print(f"error: no ergochain sources under {H.SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    H.configure_process()
    detail, result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    out_dir = H.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    detail.pop("spans", None)
    detail.pop("operations", None)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared machinery: closed-loop passes, statistics, spans, set-up timing,
machine description and the layer probe used by traced runs."""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = ("cli", "presets", "family", "kernels", "drift", "subgeo",
          "classify", "samplers", "diagnostics")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# The public functions spans wrap, with the name the CLI module imports.
TRACED = ("example_spec", "example_names", "example_description",
          "build_family", "build_Px", "build_Pdgs", "build_Prgs", "tv_curve",
          "spectral_gap", "find_drift_certificate", "verify_drift",
          "lift_to_rgs", "build_subgeo_report", "classify", "verdict_report",
          "run_chain", "run_marginal_ensemble", "batch_means")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure_process() -> None:
    """Cap BLAS and OpenMP pools at nproc and import ergochain from the
    checkout's sources, here and in every child."""
    n = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= n):
            os.environ[var] = str(n)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- operations and passes -------------------------------------------------


@dataclass
class Op:
    """One closed-loop operation: run() is timed, check(result) is not.

    check raises to report a wrong answer; an exception from run() is a
    failure too. known names a defect recorded when the benchmark was
    defined, so it is counted as failed without making the run incorrect.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known: str | None = None


@dataclass
class Outcome:
    walls: list = field(default_factory=list)
    ids: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)
    attempted: int = 0
    failures: dict = field(default_factory=dict)   # op id -> (count, reason, known)

    @property
    def failed(self) -> int:
        return sum(n for n, _, _ in self.failures.values())

    @property
    def unexpected(self) -> list:
        return [k for k, (_, _, known) in self.failures.items() if not known]

    def fastest_pass(self) -> float:
        """Sum over the pass's operations of each one's fastest time in the
        run; the wall time of the pass when there was only one.

        The host this was tuned on alternates between a fast and a slow
        state every few seconds; a run's median follows the share of time
        it spent slow, its fastest repeat much less so.
        """
        best = {}
        for op_id, wall in zip(self.ids, self.walls):
            best[op_id] = min(wall, best.get(op_id, math.inf))
        return sum(best.values())

    def fail(self, op: Op, reason: str) -> None:
        n, _, _ = self.failures.get(op.id, (0, None, None))
        self.failures[op.id] = (n + 1, reason, op.known)


def run_passes(make_pass: Callable[[int], list], seconds: float,
               after_op: Callable[[float], None] = lambda elapsed: None) -> Outcome:
    """Run whole passes, one operation at a time, until `seconds` have
    passed since the first began. Answers are checked between operations,
    outside the timed region, and after_op(elapsed seconds) runs there too."""
    out = Outcome()
    start = time.perf_counter()
    k = 0
    while True:
        total = 0.0
        for op in make_pass(k):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a crash is a failed operation
                wall = time.perf_counter() - t0
                out.fail(op, f"{type(exc).__name__}: {exc}")
            else:
                wall = time.perf_counter() - t0
                try:
                    op.check(result)
                except Exception as exc:
                    out.fail(op, f"{type(exc).__name__}: {exc}")
            out.walls.append(wall)
            out.ids.append(op.id)
            total += wall
            after_op(time.perf_counter() - start)
        out.pass_walls.append(total)
        k += 1
        if time.perf_counter() - start >= seconds:
            return out


# -- statistics --------------------------------------------------------------


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are eleven or fewer."""
    v = sorted(values)
    k = max(len(v) - 11, 0) if len(v) > 11 else len(v) - 1
    return v[k], 100.0 * (k + 1) / len(v)


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def time_fresh(code: str, repeats: int = 1) -> list:
    """Wall times of `repeats` fresh interpreters running `code`."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return walls


class SpreadSampler:
    """Samples of a fresh-interpreter run, one before the measurement and
    the rest at evenly spaced moments of it, so that a slow spell of the
    machine weighs on set-up time as it does on the operations."""

    def __init__(self, code: str, repeats: int, seconds: float):
        self.code, self.seconds, self.repeats = code, seconds, repeats
        self.walls = time_fresh(code)

    def __call__(self, elapsed: float) -> None:
        due = self.seconds * len(self.walls) / self.repeats
        if len(self.walls) < self.repeats and elapsed >= due:
            self.walls += time_fresh(self.code)

    def finish(self) -> list:
        """Take any samples the measurement ended too early for."""
        self.walls += time_fresh(self.code, self.repeats - len(self.walls))
        return self.walls


def table_spec(rng: random.Random):
    """A random `table` family, drawn like acceptance criterion 2's."""
    import ergochain

    m = rng.randint(1, 5)
    a = tuple(float(f"{rng.lognormvariate(0.0, 1.0):.6g}") for _ in range(m))
    b = tuple(float(f"{rng.lognormvariate(0.0, 1.0):.6g}") for _ in range(m))
    return ergochain.table(a, b, tail_ratio=round(0.3 + 0.5 * rng.random(), 6))


def setup_code(resolve: list) -> str:
    """Python source that imports ergochain and resolves the given specs:
    built-in names, or JSON documents of generated specs."""
    lines = ["import ergochain"]
    for item in resolve:
        if item.lstrip().startswith("{"):
            lines.append(f"ergochain.SequenceSpec.from_json({item!r})")
        else:
            lines.append(f"ergochain.example_spec({item!r})")
    return "\n".join(lines)


# -- machine description -----------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE",
                 "SC_LEVEL3_CACHE_SIZE"):
        with contextlib.suppress(ValueError, OSError):
            caches[name[3:].lower()] = os.sysconf(name)
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


# -- spans -------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, layer, start, end, parent, request."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "layer": layer,
               "parent": self._stack[-1] if self._stack else None,
               "request": self.request, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn: Callable) -> Callable:
        layer = fn.__module__.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            qual = _qualifier(fn.__name__, args, kwargs)
            name = f"{layer}.{fn.__name__}" + (f".{qual}" if qual else "")
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            _count(self.counts, fn.__name__, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        """Per-layer self time: each span minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s["layer"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def durations(self) -> dict:
        by = defaultdict(list)
        for s in self.spans:
            by[s["name"]].append(s["end"] - s["start"])
        return by


def _qualifier(name: str, args, kwargs) -> str | None:
    if name == "build_family":
        return f"N{args[1] if len(args) > 1 else kwargs['N']}"
    if name in ("build_Px", "build_Pdgs", "build_Prgs"):
        return f"N{args[0].N}"
    if name in ("tv_curve", "spectral_gap"):
        return f"{args[0].kind}.N{args[0].N}"
    if name == "classify":
        return f"N{args[1] if len(args) > 1 else kwargs.get('N', 200)}"
    if name == "run_chain":
        return args[1].kind
    return None


def _count(c: Counter, name: str, args, result) -> None:
    """Counts recorded at the span boundary, beside the timings."""
    import ergochain

    if name in ("build_Px", "build_Pdgs", "build_Prgs"):
        c["kernels.nnz"] += result.P.nnz
    elif name == "tv_curve":
        tm, n_max = args[0], args[2]
        c["kernels.tv_curve.state_steps"] += tm.n_states * n_max
        # per step: CSR values and column indices, the input, output and
        # stationary vectors, and the difference read by the TV sum
        c["kernels.tv_curve.computed_bytes"] += n_max * (12 * tm.P.nnz
                                                         + 40 * tm.n_states)
    elif name == "spectral_gap":
        c["kernels.gaps"] += 1
        gap = result.gap
        c["kernels.gaps_unresolved"] += not (math.isfinite(gap) and gap > 0.0)
    elif name == "find_drift_certificate":
        c["drift.searches"] += 1
        c["drift.certified"] += isinstance(result, ergochain.DriftCertificate)
    elif name == "classify":
        c["classify.calls"] += 1
        c["classify.decided"] += result.verdict != ergochain.INCONCLUSIVE
    elif name == "run_chain":
        c["samplers.run_chain.steps"] += args[1].n_steps
    elif name == "run_marginal_ensemble":
        c["samplers.ensemble.chain_steps"] += args[1] * args[2]


def api(tracer: Tracer | None) -> SimpleNamespace:
    """The public functions the workloads call, wrapped in spans when traced."""
    import ergochain

    fns = {n: getattr(ergochain, n) for n in TRACED}
    if tracer is not None:
        fns = {n: tracer.wrap(f) for n, f in fns.items()}
    return SimpleNamespace(**fns)


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """Point the names ergochain.cli looks up at span-wrapped versions."""
    import ergochain.cli as cli

    saved = {n: getattr(cli, n) for n in TRACED if hasattr(cli, n)}
    try:
        for n, f in saved.items():
            setattr(cli, n, tracer.wrap(f))
        yield cli
    finally:
        for n, f in saved.items():
            setattr(cli, n, f)


def dispatch_in_process(argv: list, tracer: Tracer | None = None):
    """(exit code, stdout, stderr) of ergochain.cli.dispatch(argv), with
    crashes reported as exit code 1 and a traceback, as the interpreter
    would."""
    import traceback

    import ergochain.cli as cli

    out, err = io.StringIO(), io.StringIO()
    ctx = (tracer.span(f"cli.dispatch.{argv[0]}", "cli") if tracer
           else contextlib.nullcontext())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), ctx:
        try:
            rc = cli.dispatch(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


# -- the layer probe ---------------------------------------------------------


def probe(fns: SimpleNamespace, tracer: Tracer | None) -> None:
    """One small call into each of the nine layers at N = 200.

    Traced runs start every pass with it, so every workload reports every
    layer, and time it with and without spans to measure tracing overhead.
    """
    import ergochain

    spec = fns.example_spec("geometric")
    fam = fns.build_family(spec, 200)
    tm = fns.build_Px(fam)
    fns.tv_curve(tm, 1, 50)
    fns.spectral_gap(tm)
    cert = fns.find_drift_certificate(fam)
    fns.verify_drift(fns.lift_to_rgs(cert, 0.5), fam)
    fns.build_subgeo_report(fam)
    fns.classify(spec, 200)
    cfg = ergochain.RunConfig(kind="marginal_x", n_steps=2000, seed=1, init=1,
                              g=lambda x: float(x >= 2))
    fns.batch_means(fns.run_chain(fam, cfg).g_values)
    fns.run_marginal_ensemble(fam, 10, 1000, seed=1, init=1,
                              g=lambda s: (s >= 2).astype(float))
    dispatch_in_process(["examples"], tracer)


def uncached_example_spec_s(repeats: int = 5) -> float:
    """Median time of example_spec for all built-ins with the cache cleared."""
    import ergochain

    walls = []
    for _ in range(repeats):
        ergochain.example_spec.cache_clear()
        t0 = time.perf_counter()
        for name in ergochain.example_names():
            ergochain.example_spec(name)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)

"""cli-mix: the commands users type, one fresh `python -m ergochain.cli`
process per request, closed loop with a single client.

Every request pays interpreter start and import; the kernels matter only
through `spectrum --chain rgs`. About one request in eight is malformed and
must end with exit code 2 or 4 and a single `error:` line.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys

import harness as H
import oracles as O
from harness import ROOT, Op, dispatch_in_process

BUILTINS = tuple(O.BUILTIN_VERDICTS)
CHAINS = ("marginal_x", "dgs", "rgs")
N = 200
TV_STEPS = 400
SAMPLE_STEPS = 10_000
THRESHOLD = 2          # sample --g-indicator
CLI_SCAN_P = 0.5       # the CLI's default scan probability for rgs

KNOWN = {
    "classify --spec <missing file>": "exits 1 with a FileNotFoundError traceback",
    "sample --start 2.5": "exits 1 with a ValueError traceback",
    "classify --spec <non-numeric param>": "exits 1 with a TypeError traceback",
    "spectrum --chain rgs --example mixed-geometric --n 200":
        "power iteration reports gap 1.6e-8 where the dense gap is 0",
    "spectrum --chain rgs --example alternating --n 200":
        "power iteration reports gap 6.8e-9 where the dense gap is 0",
}


class Request:
    """One command line, how to label it, and how to judge its answer."""

    def __init__(self, argv, check, label=None):
        self.argv = argv
        self.check = check
        self.id = label or " ".join(argv)


def malformed(rc, out, err) -> None:
    if rc not in (2, 4):
        raise O.OracleError(f"malformed request exited {rc}")
    if "Traceback" in err:
        raise O.OracleError("malformed request printed a traceback")
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    if len(lines) != 1:
        raise O.OracleError(f"{len(lines)} error: lines on a malformed request")


class Oracles:
    """Dense references per family at N = 200, built on first use."""

    def __init__(self, specs: dict):
        self.specs = specs
        self.models = {}
        self.kernels = {}
        self.gaps = self.gaps_unresolved = 0

    def model(self, label):
        import ergochain

        if label not in self.models:
            fam = ergochain.build_family(self.specs[label], N)
            self.models[label] = (fam, O.DenseModel(fam.log_a, fam.log_b))
        return self.models[label]

    def kernel(self, label, chain):
        key = (label, chain)
        if key not in self.kernels:
            self.kernels[key] = self.model(label)[1].kernel(chain, CLI_SCAN_P)
        return self.kernels[key]

    @staticmethod
    def rc_in(rc, allowed, err):
        if rc not in allowed:
            raise O.OracleError(f"exit code {rc}, expected {sorted(allowed)}: "
                                f"{err.strip().splitlines()[-1:] or ''}")

    def classify(self, label, verdict):
        def check(rc, out, err):
            self.rc_in(rc, {0, 3}, err)
            v = O.strict_json(out)
            if v["verdict"] not in O.VERDICTS or (rc == 3) != (v["verdict"] == "Inconclusive"):
                raise O.OracleError(f"verdict {v['verdict']!r} with exit code {rc}")
            if verdict is not None and v["verdict"] != verdict:
                raise O.OracleError(f"verdict {v['verdict']!r}, expected {verdict!r}")
            if v["certificate"] is not None:
                O.check_drift(v["certificate"], self.model(label)[1])
        return check

    def drift(self, label):
        def check(rc, out, err):
            self.rc_in(rc, {0, 3}, err)
            d = O.strict_json(out)
            if rc == 3:
                if d.get("certificate", 0) is not None:
                    raise O.OracleError("exit code 3 with a certificate")
                return
            O.check_drift(d, self.model(label)[1])
        return check

    def subgeo(self, rc, out, err):
        self.rc_in(rc, {0}, err)
        d = O.strict_json(out)
        if d["N"] != N or not 0.0 <= d["norm_lower_bound"] <= 1.0:
            raise O.OracleError(f"subgeo summary out of range: {d}")

    def spectrum(self, label, chain):
        def check(rc, out, err):
            self.rc_in(rc, {0}, err)
            gap = O.strict_json(out)["gap"]
            self.gaps += 1
            self.gaps_unresolved += not O.gap_resolved(gap)
            O.check_gap(gap, *self.kernel(label, chain))
        return check

    def tvcurve(self, label, chain):
        def check(rc, out, err):
            self.rc_in(rc, {0}, err)
            # the default start, 1 or (1, 1), is state index 0
            O.check_tv_rate(O.strict_json(out), *self.kernel(label, chain), 0,
                            TV_STEPS)
        return check

    def report(self, rc, out, err):
        self.rc_in(rc, {0}, err)
        rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:] if ln.strip()}
        for name, verdict in O.BUILTIN_VERDICTS.items():
            if name not in rows or rows[name][2] != verdict:
                raise O.OracleError(f"report row for {name}: {rows.get(name)}")

    @staticmethod
    def examples(rc, out, err):
        Oracles.rc_in(rc, {0}, err)
        names = {ln.split()[0] for ln in out.splitlines() if ln.strip()}
        if names != set(BUILTINS):
            raise O.OracleError(f"examples lists {sorted(names)}")

    def sample(self, label, chain, seed):
        def check(rc, out, err):
            import ergochain

            self.rc_in(rc, {0}, err)
            d = O.strict_json(out)
            fam = self.model(label)[0]
            init = 1 if chain == "marginal_x" else (1, 1)
            path = O.reference_chain(fam, chain, ergochain.CHAIN_IDS[chain],
                                     seed, init, SAMPLE_STEPS, CLI_SCAN_P)
            final = path[-1] if chain == "marginal_x" else list(path[-1])
            if d["final_state"] != final:
                raise O.OracleError(f"final state {d['final_state']}, "
                                    f"reference {final}")
            xs = path if chain == "marginal_x" else [x for x, _ in path]
            O.check_batch_means(d["g"], [float(x >= THRESHOLD) for x in xs])
        return check


def requests(seed: int, small: bool = False):
    """(requests in the seed's order, their oracles, specs to resolve).

    small keeps one built-in family, for the self-test.
    """
    rng = random.Random(seed)
    spec = H.table_spec(rng)
    import ergochain

    specs = {name: ergochain.example_spec(name) for name in BUILTINS}
    specs["table"] = spec
    orc = Oracles(specs)
    table_json = spec.to_json()
    n = ["--n", str(N)]
    reqs = []
    for name in BUILTINS[:1] if small else BUILTINS:
        ex = ["--example", name]
        verdict = O.BUILTIN_VERDICTS[name]
        reqs += [
            Request(["classify", *ex, *n], orc.classify(name, verdict)),
            Request(["classify", *ex, *n, "--scan-p", "0.5"],
                    orc.classify(name, verdict)),
            Request(["drift", *ex, *n, "--scan-p", "0.5"], orc.drift(name)),
            Request(["subgeo", *ex, *n, "--format", "json"], orc.subgeo),
        ]
        for chain in ("marginal_x", "rgs"):
            reqs.append(Request(["spectrum", "--chain", chain, *ex, *n],
                                orc.spectrum(name, chain)))
        for chain in CHAINS:
            reqs.append(Request(["tvcurve", "--chain", chain, *ex, *n,
                                 "--steps", str(TV_STEPS), "--format", "json"],
                                orc.tvcurve(name, chain)))
    reqs += [Request(["report", "--examples", "all"], orc.report),
             Request(["examples"], orc.examples)]
    for chain in ("marginal_x", "rgs"):
        s = rng.randrange(2**31)
        reqs.append(Request(["sample", "--example", "geometric", "--chain", chain,
                             "--steps", str(SAMPLE_STEPS), "--seed", str(s),
                             "--g-indicator", str(THRESHOLD), "--format", "json"],
                            orc.sample("geometric", chain, s),
                            f"sample --chain {chain}"))
    tab = ["--spec", table_json, *n]
    reqs += [Request(["classify", *tab], orc.classify("table", None),
                     "classify --spec <table>"),
             Request(["spectrum", "--chain", "rgs", *tab],
                     orc.spectrum("table", "rgs"),
                     "spectrum --chain rgs --spec <table>")]
    bad_param = json.dumps({"kind": "geometric", "params": {"c": "x"}})
    reqs += [
        Request(["classify", "--spec", "perfbench/no-such-spec.json"],
                malformed, "classify --spec <missing file>"),
        Request(["sample", "--example", "geometric", "--start", "2.5"],
                malformed, "sample --start 2.5"),
        Request(["classify", "--spec", bad_param], malformed,
                "classify --spec <non-numeric param>"),
        Request(["classify", "--example", "geometric", "--scan-p", "1.5"],
                malformed),
        Request(["spectrum", "--example", "geometric", "--chain", "dgs"],
                malformed),
        Request(["classify", "--example", "geometric", "--n", "5"], malformed),
    ]
    rng.shuffle(reqs)
    return reqs, orc, [*BUILTINS, table_json]


def fresh_process(argv):
    p = subprocess.run([sys.executable, "-m", "ergochain.cli", *argv], cwd=ROOT,
                       capture_output=True, text=True, timeout=150)
    return p.returncode, p.stdout, p.stderr


class Plan:
    def __init__(self, seed: int, small: bool = False):
        self.reqs, self.oracles, self.resolve = requests(seed, small)

    def figures(self, outcome) -> dict:
        tail_value, pct = H.tail(outcome.walls)
        n, orc = len(outcome.walls), self.oracles
        return {
            "cli_p50_s": H.metric(statistics.median(outcome.walls), "s", n),
            "cli_tail_s": H.metric(tail_value, "s", n),
            "cli_tail_percentile": H.metric(pct, "%", n),
            "cli_requests_per_s": H.metric(n / sum(outcome.walls), "1/s", n),
            "gap_unresolved_frac": H.metric(orc.gaps_unresolved / orc.gaps,
                                            "ratio", orc.gaps),
        }

    def ops(self, fns, tracer=None) -> list:
        """One pass: a fresh process per request, or, when traced, in-process
        dispatch through the CLI with its public names span-wrapped."""
        def make(r):
            if tracer is None:
                run = lambda: fresh_process(r.argv)  # noqa: E731
            else:
                run = lambda: dispatch_in_process(r.argv, tracer)  # noqa: E731
            return Op(r.id, run, lambda res: r.check(*res), KNOWN.get(r.id))
        return [make(r) for r in self.reqs]


def build(seed: int, small: bool = False) -> Plan:
    return Plan(seed, small)

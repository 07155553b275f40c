"""Command line interface.

Exit codes: 0 success, 2 usage error, 3 no drift certificate (drift
only, on a spec whose tail limits fire a divergence flag, whose margin
1 - rho underflows float64, or whose z* rounds to 1.0, r_hat within
five ulps of 1; classify always decides, and a Geometric verdict's
certificate is null only at the last two), 4 domain error.

dispatch refuses an --n or --steps above its limit (MAX_N, MAX_STEPS), a
negative --steps and an --n below MIN_N (classify, drift, report) before
any command runs; subgeo has no size option of its own, since its
statistics run over the truncation's rows i = 2..N. A
command then reads its spec and checks the arguments their text decides
(--start, --thin, --scan-p, --seed and spectrum's --chain) before it
looks up the numeric functions it calls, and those come from the package
on first lookup, so `examples`, --help and the refusals decided so far
run without numpy, and each command imports only the modules it uses.
Only classify and report, whose numeric modules load dataclasses anyway,
import it here, and json is loaded only to read a JSON spec or to write
JSON, so neither `examples` (as a table), --help nor those refusals load
dataclasses, inspect or, unless a --spec is JSON, json.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (BadSeed, ErgochainError, IndexOutOfRange, StartNotInSupport,
                     UnknownFormat)
from .presets import example_description, example_names, example_spec
from .spec import (DGS, MARGINAL_X, RGS, SequenceSpec, _dump_json, check_gap_kind,
                   check_scan_p)

# the numeric names the commands call as attributes of this module, so a
# wrapper set on it (as the benchmark's spans do) is the one called. The
# first lookup imports the name's module: a command loads its spec in a
# statement before it looks one up
_NUMERIC = ("build_family", "build_Px", "build_Pdgs", "build_Prgs", "tv_curve",
            "spectral_gap", "certify", "NoCertificate", "build_subgeo_report",
            "classify", "verdict_report", "RunConfig",
            "run_chain", "batch_means", "CLT_NOTE")
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


_CHAINS = (MARGINAL_X, DGS, RGS)
# largest truncation level --n accepts; the family arrays are sized by it
MAX_N = 10 ** 6
# largest --steps: tvcurve allocates one float per step, sample keeps the trace
MAX_STEPS = 10 ** 7
# largest tvcurve steps x states transported per step: the states within
# steps of the start, at most the N states of the x-marginal chain, which
# also carries a dgs curve, or the 2N - 1 of rgs. A window inside the chain
# grows by 2 a step, so such runs end in seconds (dgs, N = 10^6, 20 000
# steps: about 1 s); the slowest are 10^7 steps on about 100 states,
# about 3 us a step, 31 s in all (2-core Xeon VM, numpy 2.4).
MAX_TV_WORK = 10 ** 9
# the size options dispatch refuses above their limit, before any work
_LIMITS = {"n": MAX_N, "steps": MAX_STEPS}
# smallest --n of classify, drift and report. The library takes any N >= 2
# (the tail limits are exact); the command line keeps this floor unchanged
MIN_N = 10


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--spec", help="family spec: inline JSON or a file path")
    grp.add_argument("--example", choices=example_names(),
                     help="one of the built-in families")
    p.add_argument("--n", type=int, default=200,
                   help=f"truncation level, at most {MAX_N}")


def _load_spec(args) -> SequenceSpec:
    """The command's spec, read before its --scan-p is checked."""
    if args.example is not None:
        spec = example_spec(args.example)
    else:
        text = args.spec
        if not text.lstrip().startswith(("{", "[", '"')):
            try:
                text = Path(text).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise UnknownFormat(f"spec file is not UTF-8 text: {exc}") from None
        spec = SequenceSpec.from_json(text)
    _check_scan_p(args)
    return spec


def _check_scan_p(args) -> None:
    """Refuse a --scan-p that the command would use and refuse later."""
    if args.scan_p is not None and getattr(args, "chain", RGS) == RGS:
        check_scan_p(args.scan_p)


def _start(args):
    """The parsed --start, or the chain's first state when it is omitted."""
    if args.start is None:
        return 1 if args.chain == MARGINAL_X else (1, 1)
    try:
        if args.chain == MARGINAL_X:
            return int(args.start)
        parts = args.start.split(",")
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise StartNotInSupport(f"need an integer start, or x,y for a bivariate "
                            f"chain, got {args.start!r}")


def _kernel(args, spec):
    """The family's --chain kernel, for spectrum and tvcurve."""
    fam = _cli.build_family(spec, args.n)
    if args.chain == MARGINAL_X:
        return _cli.build_Px(fam)
    if args.chain == DGS:
        return _cli.build_Pdgs(fam)
    return _cli.build_Prgs(fam, args.scan_p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergochain",
        description="Convergence-rate analysis of staircase Gibbs chains")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="geometric or subgeometric verdict")
    _add_spec_args(p)
    p.add_argument("--scan-p", type=float, default=None,
                   help="also lift the certificate to the random scan")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("drift", help="search for a drift certificate")
    _add_spec_args(p)
    p.add_argument("--scan-p", type=float, default=None)

    p = sub.add_parser("spectrum", help="operator norm and spectral gap")
    _add_spec_args(p)
    p.add_argument("--chain", choices=_CHAINS, default=MARGINAL_X)
    p.add_argument("--scan-p", type=float, default=0.5)

    p = sub.add_parser("tvcurve", help="total variation distance by step")
    _add_spec_args(p)
    p.add_argument("--chain", choices=_CHAINS, default=MARGINAL_X)
    p.add_argument("--scan-p", type=float, default=0.5)
    p.add_argument("--start", default=None)
    p.add_argument("--steps", type=int, default=400,
                   help=f"at most {MAX_STEPS}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("subgeo", help="conditional-variance and tail statistics")
    _add_spec_args(p)
    p.add_argument("--scan-p", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sample", help="simulate a chain")
    _add_spec_args(p)
    p.add_argument("--chain", choices=_CHAINS, default=MARGINAL_X)
    p.add_argument("--scan-p", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=1000,
                   help=f"at most {MAX_STEPS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default=None)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--g-indicator", type=int, default=None, metavar="T",
                   help="track g = 1(x >= T) and report a batch-means error")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("examples", help="list the built-in families")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("report", help="classify several families at once")
    p.add_argument("--examples", default="all",
                   help="comma-separated example names, or all")
    p.add_argument("--n", type=int, default=200,
                   help=f"truncation level, at most {MAX_N}")
    p.add_argument("--scan-p", type=float, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")

    for p in sub.choices.values():
        p.add_argument("--out")
    return ap


def _cmd_classify(args) -> tuple[str, int]:
    spec = _load_spec(args)
    v = _cli.classify(spec, N=args.n, scan_p=args.scan_p)
    import dataclasses      # after the refusals; classify has loaded it

    v = dataclasses.replace(v, label=args.example or "spec")
    if args.format == "table":
        return _cli.verdict_report([v], "table"), 0
    return _dump_json(v.to_json_dict()), 0


def _cmd_drift(args) -> tuple[str, int]:
    spec = _load_spec(args)
    cert = _cli.certify(spec, args.n, args.scan_p)
    code = 3 if isinstance(cert, _cli.NoCertificate) else 0
    if code:        # as classify: a spec that cannot be truncated at N exits 4
        _cli.build_family(spec, args.n)
    return _dump_json(cert.to_json_dict()), code


def _cmd_spectrum(args) -> tuple[str, int]:
    spec = _load_spec(args)
    check_gap_kind(args.chain)
    tm = _kernel(args, spec)
    return _dump_json(_cli.spectral_gap(tm).to_json_dict()), 0


def _cmd_tvcurve(args) -> tuple[str, int]:
    spec = _load_spec(args)
    start = _start(args)
    curve = _cli.tv_curve(_kernel(args, spec), start, args.steps)
    if args.format == "json":
        return _dump_json(curve.to_json_dict()), 0
    return curve.to_csv(), 0


def _cmd_subgeo(args) -> tuple[str, int]:
    spec = _load_spec(args)
    fam = _cli.build_family(spec, args.n)
    report = _cli.build_subgeo_report(fam, scan_p=args.scan_p)
    if args.format == "json":
        return _dump_json(report.to_json_dict()), 0
    return report.to_csv(), 0


def _cmd_sample(args) -> tuple[str, int]:
    spec = _load_spec(args)
    start = _start(args)
    if args.thin < 1:
        raise IndexOutOfRange("thin must be >= 1")
    if args.seed < 0:
        raise BadSeed(f"seed must be a nonnegative integer, got {args.seed!r}")
    fam = _cli.build_family(spec, args.n)
    g = None
    # only the JSON prints g, so the CSV does not compute it
    if args.g_indicator is not None and args.format == "json":
        t = args.g_indicator
        g = ((lambda x: float(x >= t)) if args.chain == MARGINAL_X
             else (lambda x, y: float(x >= t)))
    # the JSON prints only the state after the last step: record just that one
    thin = args.thin if args.format == "csv" else max(args.steps, 1)
    cfg = _cli.RunConfig(kind=args.chain, n_steps=args.steps, seed=args.seed,
                         init=start, thin=thin,
                         scan_p=args.scan_p if args.chain == RGS else None, g=g)
    trace = _cli.run_chain(fam, cfg)
    if args.format == "csv":
        return trace.to_csv(), 0
    final = None
    if trace.xs.size:
        final = (int(trace.xs[-1]) if trace.ys is None
                 else [int(trace.xs[-1]), int(trace.ys[-1])])
    out = {"kind": trace.kind, "n_steps": trace.n_steps, "seed": trace.seed,
           "thin": args.thin, "final_state": final, "g": None}
    if g is not None and trace.n_steps > 0:
        est = _cli.batch_means(trace.g_values)
        gd = est.to_json_dict()
        gd["note"] = _cli.CLT_NOTE
        out["g"] = gd
    return _dump_json(out), 0


def _cmd_examples(args) -> tuple[str, int]:
    names = example_names()
    if args.format == "json":
        return _dump_json([{"name": n, "description": example_description(n)}
                           for n in names]), 0
    width = max(len(n) for n in names)
    lines = [f"{n.ljust(width)}  {example_description(n)}" for n in names]
    return "\n".join(lines) + "\n", 0


def _cmd_report(args) -> tuple[str, int]:
    if args.examples == "all":
        names = example_names()
    else:
        names = [s.strip() for s in args.examples.split(",") if s.strip()]
    specs = [example_spec(name) for name in names]
    _check_scan_p(args)
    verdicts = [_cli.classify(spec, N=args.n, scan_p=args.scan_p) for spec in specs]
    import dataclasses      # after the refusals; classify has loaded it

    verdicts = [dataclasses.replace(v, label=n) for v, n in zip(verdicts, names)]
    return _cli.verdict_report(verdicts, args.format), 0


_COMMANDS = {
    "classify": _cmd_classify,
    "drift": _cmd_drift,
    "spectrum": _cmd_spectrum,
    "tvcurve": _cmd_tvcurve,
    "subgeo": _cmd_subgeo,
    "sample": _cmd_sample,
    "examples": _cmd_examples,
    "report": _cmd_report,
}


def dispatch(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, limit in _LIMITS.items():
            value = getattr(args, name, None)
            if value is not None and value > limit:
                raise IndexOutOfRange(f"--{name} {value} exceeds the limit "
                                      f"{limit}")
        if getattr(args, "steps", 0) < 0:
            raise IndexOutOfRange(f"--steps {args.steps} must be at least 0")
        if args.command in ("classify", "drift", "report") and args.n < MIN_N:
            raise IndexOutOfRange(f"--n {args.n} is below {MIN_N}, the smallest "
                                  f"truncation level {args.command} accepts")
        if args.command == "tvcurve":
            states = 2 * args.n - 1 if args.chain == RGS else args.n
            states = min(states, 2 * args.steps + 1)
            if args.steps * states > MAX_TV_WORK:
                raise IndexOutOfRange(
                    f"--steps {args.steps} x {states} states exceeds the "
                    f"tvcurve budget of {MAX_TV_WORK} state-steps")
        text, code = _COMMANDS[args.command](args)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except ErgochainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

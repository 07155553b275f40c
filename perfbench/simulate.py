"""simulate: the samplers in-process at N = 200 on `geometric` and `power-law`.

One RNG and stream contract is used two ways: run_chain steps one chain in
a scalar Python loop (marginal_x, dgs, and rgs at scan_p 0.3, thin 10, an
indicator g, then batch_means on g), and run_marginal_ensemble moves 100
marginal chains in lockstep with vectorized numpy. No kernel code runs here,
so a kernel change should leave this workload unchanged.
"""

from __future__ import annotations

import random

import numpy as np

import harness as H
import oracles as O
from harness import Op

FAMILIES = ("geometric", "power-law")
CHAINS = ("marginal_x", "dgs", "rgs")
N = 200
SCAN_P = 0.3
THIN = 10
THRESHOLD = 2
STEPS, ENSEMBLE_CHAINS, ENSEMBLE_STEPS = 100_000, 100, 20_000
SMALL = (5_000, 10, 1_000)
# Prefix of every trace and ensemble stream replayed by the reference stepper.
PREFIX, ENSEMBLE_PREFIX = 2_000, 200


def indicator_x(x):
    return float(x >= THRESHOLD)


def indicator_xy(x, y):
    return float(x >= THRESHOLD)


def indicator_vec(states):
    return (states >= THRESHOLD).astype(float)


class Plan:
    def __init__(self, seed: int, small: bool = False):
        import ergochain

        self.fams = {name: ergochain.build_family(ergochain.example_spec(name), N)
                     for name in FAMILIES}
        self.steps, self.n_chains, self.ens_steps = SMALL if small else (
            STEPS, ENSEMBLE_CHAINS, ENSEMBLE_STEPS)
        self.order = [(f, c) for f in FAMILIES for c in CHAINS]
        self.order += [(f, "ensemble") for f in FAMILIES]
        self.rng = random.Random(seed)
        self.rng.shuffle(self.order)
        self.resolve = list(FAMILIES)

    def figures(self, outcome) -> dict:
        """Steps per second of run_chain and chain-steps per second of the
        ensemble, over all their operations in the run."""
        chain = [w for i, w in zip(outcome.ids, outcome.walls)
                 if i.startswith("run_chain")]
        ens = [w for i, w in zip(outcome.ids, outcome.walls)
               if i.startswith("run_marginal_ensemble")]
        return {
            "chain_steps_per_s": H.metric(len(chain) * self.steps / sum(chain),
                                          "1/s", len(chain)),
            "ensemble_chain_steps_per_s": H.metric(
                len(ens) * self.n_chains * self.ens_steps / sum(ens), "1/s",
                len(ens)),
        }

    def ops(self, fns, tracer=None) -> list:
        out = []
        for fam_name, what in self.order:
            fam = self.fams[fam_name]
            seed = self.rng.randrange(2**31)
            if what == "ensemble":
                out.append(self._ensemble(fns, fam, fam_name, seed))
            else:
                out.append(self._chain(fns, fam, fam_name, what, seed))
        return out

    def _chain(self, fns, fam, fam_name, kind, seed):
        import ergochain

        init = 1 if kind == "marginal_x" else (1, 1)
        cfg = ergochain.RunConfig(
            kind=kind, n_steps=self.steps, seed=seed, init=init, thin=THIN,
            scan_p=SCAN_P if kind == "rgs" else None,
            g=indicator_x if kind == "marginal_x" else indicator_xy)

        def run():
            trace = fns.run_chain(fam, cfg)
            return trace, fns.batch_means(trace.g_values)

        def check(result):
            trace, est = result
            n = min(PREFIX, self.steps)
            ref = O.reference_chain(fam, kind, ergochain.CHAIN_IDS[kind], seed,
                                    init, n, SCAN_P)
            rec = ref[THIN - 1::THIN]
            k = len(rec)
            if not np.array_equal(trace.steps[:k], np.arange(THIN, n + 1, THIN)):
                raise O.OracleError("recorded steps are not every THIN-th step")
            if kind == "marginal_x":
                xs, same = ref, np.array_equal(trace.xs[:k], rec)
            else:
                xs = [x for x, _ in ref]
                same = (np.array_equal(trace.xs[:k], [x for x, _ in rec])
                        and np.array_equal(trace.ys[:k], [y for _, y in rec]))
            if not same:
                raise O.OracleError(f"trace differs from the reference stepper "
                                    f"within the first {n} steps")
            if not np.array_equal(trace.g_values[:n],
                                  [float(x >= THRESHOLD) for x in xs]):
                raise O.OracleError("g values differ from the reference")
            O.check_batch_means(est.to_json_dict(), trace.g_values)

        return Op(f"run_chain {kind} {fam_name}", run, check)

    def _ensemble(self, fns, fam, fam_name, seed):
        import ergochain

        def run():
            return fns.run_marginal_ensemble(
                fam, self.n_chains, self.ens_steps, seed=seed, init=1,
                g=indicator_vec)

        def check(res):
            if not ((res.final_states >= 1) & (res.final_states <= N)).all():
                raise O.OracleError("ensemble state left 1..N")
            if not (np.isfinite(res.g_bar).all() and
                    ((res.g_bar >= 0) & (res.g_bar <= 1)).all()):
                raise O.OracleError("ensemble g_bar outside [0, 1]")
            if not all(np.isfinite(e.mcse) and e.mcse >= 0 for e in res.estimates):
                raise O.OracleError("ensemble mcse not a finite nonnegative number")
            # the same seed over a prefix of the steps must replay the stream
            n = min(ENSEMBLE_PREFIX, self.ens_steps)
            short = ergochain.run_marginal_ensemble(
                fam, self.n_chains, n, seed=seed, init=1, g=indicator_vec)
            xs, means = O.reference_ensemble(
                fam, ergochain.CHAIN_IDS["marginal_x"], seed, self.n_chains, 1,
                n, THRESHOLD)
            if not np.array_equal(short.final_states, xs):
                raise O.OracleError(f"ensemble stream differs from the reference "
                                    f"within the first {n} steps")
            if not np.allclose(short.g_bar, means, rtol=1e-12, atol=0.0):
                raise O.OracleError("ensemble g_bar differs from the reference")

        return Op(f"run_marginal_ensemble {fam_name}", run, check)


def build(seed: int, small: bool = False) -> Plan:
    return Plan(seed, small)

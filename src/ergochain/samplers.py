"""Simulation of the three chains by inversion of fixed uniform draws.

Every step consumes a deterministic number of uniforms in a fixed order,
so a trace is reproducible from (seed, chain kind) alone:

  marginal_x  one uniform u; up-move when u < p_x, down-move when
              u < p_x + q_x, stay otherwise.
  dgs         two uniforms; x' = y + 1 when u1 < beta_y else x' = y,
              then y' = x' - 1 when u2 < delta_{x'} else y' = x'.
  rgs         two uniforms; the coin u1 < scan_p selects the x-update
              (x' from beta_y, y kept), otherwise the y-update
              (y' from delta_x, x kept).

Streams are keyed by Philox with entropy (seed, chain id) so the three
kinds never share uniforms even under the same seed.

The samplers draw uniforms in blocks: rng.random(k) yields the same
doubles, in the same order, as k calls of rng.random(), so a trace does
not depend on the block size.  run_chain steps over those blocks with
the rules above inlined; marginal_step, dgs_step and rgs_step state the
same rules one step at a time.

A function g of the state, when given, is evaluated after each block,
not inside the step loop: run_chain calls it once per distinct state
the block visits and run_marginal_ensemble once per block of rows.  So
g must depend on the state alone; how often and in what order it is
called is not part of the contract.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .diagnostics import BatchMeansEstimate, _from_means, batch_layout
from .errors import BadSeed, IndexOutOfRange, StartNotInSupport
from .family import BivariateFamily
from .kernels import check_state
from .spec import DGS, MARGINAL_X, RGS, check_scan_p

CHAIN_IDS = {MARGINAL_X: 0, DGS: 1, RGS: 2}

# run_chain draws the uniforms of this many steps at once
_BLOCK = 8192
# run_marginal_ensemble draws the uniforms of, and applies g to, this
# many steps at once
_ROWS = 256


def make_rng(seed: int, kind: str) -> np.random.Generator:
    """Philox generator keyed by (seed, chain id); kinds never collide.

    The seed must be a nonnegative integer, so 2.7 is refused rather than
    truncated; anything else raises BadSeed.
    """
    if kind not in CHAIN_IDS:
        raise StartNotInSupport(f"unknown chain kind {kind!r}")
    try:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError
    except (TypeError, ValueError):
        raise BadSeed(f"seed must be a nonnegative integer, got {seed!r}") from None
    ss = np.random.SeedSequence((seed, CHAIN_IDS[kind]))
    return np.random.Generator(np.random.Philox(ss))


def marginal_step(fam: BivariateFamily, x: int, u: float) -> int:
    p, q = fam.p[x - 1], fam.q[x - 1]
    if u < p:
        return x + 1
    if u < p + q:
        return x - 1
    return x


def dgs_step(fam: BivariateFamily, y: int, u1: float, u2: float) -> tuple[int, int]:
    """One deterministic-scan step; the row depends on y only."""
    x_new = y + 1 if u1 < fam.beta[y - 1] else y
    y_new = x_new - 1 if u2 < fam.delta[x_new - 1] else x_new
    return x_new, y_new


def rgs_step(fam: BivariateFamily, x: int, y: int, scan_p: float,
             u1: float, u2: float) -> tuple[int, int]:
    """One random-scan step; exactly one coordinate moves per step."""
    if u1 < scan_p:
        x_new = y + 1 if u2 < fam.beta[y - 1] else y
        return x_new, y
    y_new = x - 1 if u2 < fam.delta[x - 1] else x
    return x, y_new


@dataclass(frozen=True)
class RunConfig:
    """What to simulate.  g, when given, is a function of the state
    alone, g(x) for the marginal chain and g(x, y) for the bivariate
    ones; Trace.g_values holds its value at every step, but run_chain
    calls it only once per distinct state of each block of steps, so a
    g with side effects or memory sees fewer, reordered calls."""

    kind: str
    n_steps: int
    seed: int
    init: object
    thin: int = 1
    scan_p: float | None = None
    g: object | None = None

    def __post_init__(self):
        if self.kind not in CHAIN_IDS:
            raise StartNotInSupport(f"unknown chain kind {self.kind!r}")
        if self.n_steps < 0:
            raise IndexOutOfRange("n_steps must be >= 0")
        if self.thin < 1:
            raise IndexOutOfRange("thin must be >= 1")
        if self.kind == RGS:
            check_scan_p(self.scan_p)


@dataclass(frozen=True)
class Trace:
    """Thinned output of run_chain.  steps holds the step index of each
    recorded sample; ys is None for the marginal chain."""

    kind: str
    seed: int
    n_steps: int
    thin: int
    steps: np.ndarray
    xs: np.ndarray
    ys: np.ndarray | None
    g_mean: float | None = None
    g_values: np.ndarray | None = None

    def to_csv(self) -> str:
        lines = ["step,x,y"]
        steps, xs = self.steps.tolist(), self.xs.tolist()
        if self.ys is None:
            lines += [f"{s},{x}," for s, x in zip(steps, xs)]
        else:
            lines += [f"{s},{x},{y}"
                      for s, x, y in zip(steps, xs, self.ys.tolist())]
        return "\n".join(lines) + "\n"


def _g_by_state(g, states: np.ndarray, marginal: bool) -> np.ndarray:
    """g at each state of a block, calling g once per distinct state.
    The states are x for the marginal chain and s = x + y for the pairs,
    which give back x = (s + 1) // 2 and y = s // 2 since x - y is 0
    or 1."""
    lo = int(states.min())
    off = states - lo
    seen = np.flatnonzero(np.bincount(off))
    v = seen + lo
    table = np.empty(seen[-1] + 1, dtype=np.float64)
    table[seen] = list(map(g, v.tolist()) if marginal
                       else map(g, ((v + 1) // 2).tolist(), (v // 2).tolist()))
    return table.take(off)


def run_chain(fam: BivariateFamily, cfg: RunConfig) -> Trace:
    """Simulate cfg.n_steps steps of one chain and keep the state of
    steps thin, 2 thin, ...; with cfg.g, also g at every step.

    Each block of steps records one int64 per step, x for the marginal
    chain and x + y for the pairs, and keeps only its thinned part, so
    memory is O(block + n_steps / thin) beside g_values.  g is called
    once per distinct state of the block and its values are looked up
    from that table.
    """
    rng = make_rng(cfg.seed, cfg.kind)
    n, thin, g = cfg.n_steps, cfg.thin, cfg.g
    g_vals = np.empty(n, dtype=np.float64) if g is not None else None
    marginal = cfg.kind == MARGINAL_X
    # the step rules' thresholds as lists indexed by the 1-based state
    if marginal:
        x = check_state(MARGINAL_X, fam.N, cfg.init)
        # marginal_step's rule; p + q here is the same double it forms
        p, pq = [0.0, *fam.p.tolist()], [0.0, *(fam.p + fam.q).tolist()]
    else:
        x, y = check_state(cfg.kind, fam.N, cfg.init)
        beta, delta = [0.0, *fam.beta.tolist()], [0.0, *fam.delta.tolist()]
        scan_p = cfg.scan_p

    rec = np.empty(n // thin, dtype=np.int64)
    done = kept = 0
    while done < n:
        m = min(_BLOCK, n - done)
        block = array("q")
        put = block.append
        if marginal:
            for u in rng.random(m).tolist():
                if u < p[x]:
                    x += 1
                elif u < pq[x]:
                    x -= 1
                put(x)
        else:
            # (u1, u2) pairs in draw order, as in dgs_step and rgs_step
            u = iter(rng.random(2 * m).tolist())
            if cfg.kind == DGS:
                for u1, u2 in zip(u, u):
                    x = y + 1 if u1 < beta[y] else y
                    y = x - 1 if u2 < delta[x] else x
                    put(x + y)
            else:
                for u1, u2 in zip(u, u):
                    if u1 < scan_p:
                        x = y + 1 if u2 < beta[y] else y
                    else:
                        y = x - 1 if u2 < delta[x] else x
                    put(x + y)
        states = np.frombuffer(block, dtype=np.int64)
        if g_vals is not None:
            g_vals[done:done + m] = _g_by_state(g, states, marginal)
        # keep the states of steps thin, 2 thin, ...; step done + j + 1
        keep = states[(thin - 1 - done) % thin::thin]
        rec[kept:kept + keep.size] = keep
        kept += keep.size
        done += m

    g_mean = float(g_vals.mean()) if g_vals is not None and n > 0 else None
    return Trace(kind=cfg.kind, seed=cfg.seed, n_steps=n, thin=thin,
                 steps=np.arange(thin, n + 1, thin, dtype=np.int64),
                 xs=rec if marginal else (rec + 1) // 2,
                 ys=None if marginal else rec // 2,
                 g_mean=g_mean, g_values=g_vals)


# -- vectorized ensemble of marginal chains --------------------------------


def _add_rows(start: np.ndarray, rows) -> np.ndarray:
    """start + rows[0] + rows[1] + ..., added one row at a time in step
    order, so every sum rounds as it would step by step.  Accumulating
    along axis 0 keeps that order at any width; a reduction would not,
    since with one column it sums pairwise."""
    acc = np.concatenate([start[None], rows])
    # a copy, so that the sum does not hold the whole buffer alive
    return np.add.accumulate(acc, axis=0, out=acc)[-1].copy()


@dataclass(frozen=True)
class EnsembleResult:
    n_chains: int
    n_steps: int
    final_states: np.ndarray
    g_bar: np.ndarray | None
    estimates: list[BatchMeansEstimate] | None


def run_marginal_ensemble(fam: BivariateFamily, n_chains: int, n_steps: int,
                          seed: int, init: int, g=None,
                          batch_size: int | None = None) -> EnsembleResult:
    """Run n_chains marginal chains in lockstep from a common start.

    g, when given, must be elementwise: it receives an int64 array of
    states of shape (rows, n_chains), one row per step for up to
    _ROWS steps at a time, and returns floats of the same shape.  Per
    chain the running mean and a batch-means error estimate are
    returned; at least 4 batches are needed, and a shorter run raises
    TooFewSamples before any step is taken.  The running sums add g's
    rows one at a time in step order, so they round as step-by-step
    sums would.  Uniforms are drawn step-major, (rows, n_chains) at a
    time, so chain k sees the same stream as one draw per step would
    give it.
    """
    if n_chains < 1 or n_steps < 0:
        raise IndexOutOfRange("need n_chains >= 1 and n_steps >= 0")
    x0 = check_state(MARGINAL_X, fam.N, init)

    track = g is not None
    if track:
        batch_size, n_batches = batch_layout(n_steps, batch_size)
        batch_means = np.zeros((n_chains, n_batches), dtype=np.float64)
        zeros = np.zeros(n_chains, dtype=np.float64)
        batch_acc = total = zeros

    rng = make_rng(seed, MARGINAL_X)
    # 0-based levels: the up-move when u < p, the down-move when
    # p <= u < p + q, so the level moves by 2 up - (u < p + q)
    s = np.full(n_chains, x0 - 1, dtype=np.int64)
    p, pq = fam.p, fam.p + fam.q
    # with g each step writes its states into the next row for g to read;
    # without g the states are updated in place
    rows = (np.empty((_ROWS, n_chains), dtype=np.int64) if track
            else itertools.repeat(s))
    up = np.empty(n_chains, dtype=bool)
    lt = np.empty(n_chains, dtype=bool)
    up8, lt8 = up.view(np.int8), lt.view(np.int8)
    move = np.empty(n_chains, dtype=np.int8)
    for c0 in range(0, n_steps, _ROWS):
        c = min(_ROWS, n_steps - c0)
        # step-major draws: step j hands row j to the chains, so the
        # stream seen by chain k does not depend on the chunk size
        for u, row in zip(rng.random((c, n_chains)), rows):
            np.less(u, p[s], out=up)
            np.less(u, pq[s], out=lt)
            np.add(up8, up8, out=move)
            np.subtract(move, lt8, out=move)
            s = np.add(s, move, out=row)
        if track:
            gv = g(rows[:c] + 1)
            total = _add_rows(total, gv)
            # rows lo:hi end the batch of step c0 + hi
            lo = 0
            for hi in range(batch_size - c0 % batch_size, c + 1, batch_size):
                batch_acc = _add_rows(batch_acc, gv[lo:hi])
                batch_means[:, (c0 + hi) // batch_size - 1] = batch_acc / batch_size
                batch_acc, lo = zeros, hi
            batch_acc = _add_rows(batch_acc, gv[lo:c])

    states = s + 1
    if not track:
        return EnsembleResult(n_chains, n_steps, states, None, None)
    g_bar = total / n_steps
    ests = [_from_means(float(g_bar[k]), batch_means[k], batch_size, n_steps)
            for k in range(n_chains)]
    return EnsembleResult(n_chains, n_steps, states, g_bar, ests)


__all__ = [
    "CHAIN_IDS", "make_rng",
    "marginal_step", "dgs_step", "rgs_step",
    "RunConfig", "Trace", "run_chain",
    "EnsembleResult", "run_marginal_ensemble",
]

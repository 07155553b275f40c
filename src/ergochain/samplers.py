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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .diagnostics import BatchMeansEstimate, _from_means, batch_layout
from .errors import BadSeed, IndexOutOfRange, StartNotInSupport
from .family import BivariateFamily
from .kernels import DGS, MARGINAL_X, RGS, check_scan_p, check_state

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
    """What to simulate.  g, when given, is evaluated at every step:
    g(x) for the marginal chain, g(x, y) for the bivariate ones."""

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


def run_chain(fam: BivariateFamily, cfg: RunConfig) -> Trace:
    rng = make_rng(cfg.seed, cfg.kind)
    n, thin, g = cfg.n_steps, cfg.thin, cfg.g
    g_vals = np.empty(n, dtype=np.float64) if g is not None else None
    marginal = cfg.kind == MARGINAL_X
    if marginal:
        x = check_state(MARGINAL_X, fam.N, cfg.init)
        # marginal_step's rule; p + q here is the same double it forms
        p, pq = fam.p.tolist(), (fam.p + fam.q).tolist()
    else:
        x, y = check_state(cfg.kind, fam.N, cfg.init)
        beta, delta, scan_p = fam.beta.tolist(), fam.delta.tolist(), cfg.scan_p

    rec_x, rec_y = [], []
    done = 0
    while done < n:
        m = min(_BLOCK, n - done)
        xs, ys = [], []
        if marginal:
            for u in rng.random(m).tolist():
                if u < p[x - 1]:
                    x += 1
                elif u < pq[x - 1]:
                    x -= 1
                xs.append(x)
        else:
            # (u1, u2) pairs in draw order, as in dgs_step and rgs_step
            u = iter(rng.random(2 * m).tolist())
            if cfg.kind == DGS:
                for u1, u2 in zip(u, u):
                    x = y + 1 if u1 < beta[y - 1] else y
                    y = x - 1 if u2 < delta[x - 1] else x
                    xs.append(x)
                    ys.append(y)
            else:
                for u1, u2 in zip(u, u):
                    if u1 < scan_p:
                        x = y + 1 if u2 < beta[y - 1] else y
                    else:
                        y = x - 1 if u2 < delta[x - 1] else x
                    xs.append(x)
                    ys.append(y)
        if g_vals is not None:
            g_vals[done:done + m] = list(map(g, xs) if marginal else map(g, xs, ys))
        # keep the states of steps thin, 2 thin, ...; step done + j + 1
        first = (thin - 1 - done) % thin
        rec_x += xs[first::thin]
        rec_y += ys[first::thin]
        done += m

    g_mean = float(g_vals.mean()) if g_vals is not None and n > 0 else None
    return Trace(kind=cfg.kind, seed=cfg.seed, n_steps=n, thin=thin,
                 steps=np.arange(thin, n + 1, thin, dtype=np.int64),
                 xs=np.asarray(rec_x, dtype=np.int64),
                 ys=None if marginal else np.asarray(rec_y, dtype=np.int64),
                 g_mean=g_mean, g_values=g_vals)


# -- vectorized ensemble of marginal chains --------------------------------


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
    TooFewSamples before any step is taken.  Uniforms are drawn
    step-major, (rows, n_chains) at a time, so chain k sees the same
    stream as one draw per step would give it.
    """
    if n_chains < 1 or n_steps < 0:
        raise IndexOutOfRange("need n_chains >= 1 and n_steps >= 0")
    x0 = check_state(MARGINAL_X, fam.N, init)

    track = g is not None
    if track:
        batch_size, n_batches = batch_layout(n_steps, batch_size)
        batch_means = np.zeros((n_chains, n_batches), dtype=np.float64)
        batch_acc = np.zeros(n_chains, dtype=np.float64)
        total = np.zeros(n_chains, dtype=np.float64)
        rows = np.empty((_ROWS, n_chains), dtype=np.int64)

    rng = make_rng(seed, MARGINAL_X)
    # 0-based levels: the up-move when u < p, the down-move when
    # p <= u < p + q, so the level moves by 2 up - (u < p + q)
    s = np.full(n_chains, x0 - 1, dtype=np.int64)
    p, pq = fam.p, fam.p + fam.q
    for c0 in range(0, n_steps, _ROWS):
        c = min(_ROWS, n_steps - c0)
        # step-major draws: step j hands row j to the chains, so the
        # stream seen by chain k does not depend on the chunk size
        for j, u in enumerate(rng.random((c, n_chains))):
            up = u < p.take(s)
            lt = u < pq.take(s)
            s += up
            s += up
            s -= lt
            if track:
                rows[j] = s
        if track:
            # rows are added one at a time in step order, so every
            # sum rounds as it would step by step
            for step, gv in enumerate(g(rows[:c] + 1), c0 + 1):
                total += gv
                batch_acc += gv
                if step % batch_size == 0:
                    batch_means[:, step // batch_size - 1] = batch_acc / batch_size
                    batch_acc[:] = 0.0

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

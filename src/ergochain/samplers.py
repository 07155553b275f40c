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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import BatchMeansEstimate, _from_means
from .errors import IndexOutOfRange, StartNotInSupport
from .family import BivariateFamily
from .kernels import DGS, MARGINAL_X, RGS, check_scan_p, check_state

CHAIN_IDS = {MARGINAL_X: 0, DGS: 1, RGS: 2}


def make_rng(seed: int, kind: str) -> np.random.Generator:
    """Philox generator keyed by (seed, chain id); kinds never collide."""
    if kind not in CHAIN_IDS:
        raise StartNotInSupport(f"unknown chain kind {kind!r}")
    ss = np.random.SeedSequence((int(seed), CHAIN_IDS[kind]))
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
        if self.ys is None:
            lines += [f"{s},{x}," for s, x in zip(self.steps, self.xs)]
        else:
            lines += [f"{s},{x},{y}"
                      for s, x, y in zip(self.steps, self.xs, self.ys)]
        return "\n".join(lines) + "\n"


def run_chain(fam: BivariateFamily, cfg: RunConfig) -> Trace:
    rng = make_rng(cfg.seed, cfg.kind)
    n = cfg.n_steps
    g_vals = np.empty(n, dtype=np.float64) if cfg.g is not None else None

    rec_steps, rec_x, rec_y = [], [], []
    if cfg.kind == MARGINAL_X:
        x = check_state(MARGINAL_X, fam.N, cfg.init)
        for step in range(1, n + 1):
            x = marginal_step(fam, x, rng.random())
            if g_vals is not None:
                g_vals[step - 1] = cfg.g(x)
            if step % cfg.thin == 0:
                rec_steps.append(step)
                rec_x.append(x)
        ys = None
    else:
        x, y = check_state(cfg.kind, fam.N, cfg.init)
        for step in range(1, n + 1):
            if cfg.kind == DGS:
                x, y = dgs_step(fam, y, rng.random(), rng.random())
            else:
                x, y = rgs_step(fam, x, y, cfg.scan_p,
                                rng.random(), rng.random())
            if g_vals is not None:
                g_vals[step - 1] = cfg.g(x, y)
            if step % cfg.thin == 0:
                rec_steps.append(step)
                rec_x.append(x)
                rec_y.append(y)
        ys = np.asarray(rec_y, dtype=np.int64)

    g_mean = float(g_vals.mean()) if g_vals is not None and n > 0 else None
    return Trace(kind=cfg.kind, seed=cfg.seed, n_steps=n, thin=cfg.thin,
                 steps=np.asarray(rec_steps, dtype=np.int64),
                 xs=np.asarray(rec_x, dtype=np.int64), ys=ys,
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
                          batch_size: int | None = None,
                          block: int = 8192) -> EnsembleResult:
    """Run n_chains marginal chains in lockstep from a common start.

    g, when given, must map an int64 state vector to a float vector; per
    chain the running mean and a batch-means error estimate are returned.
    Uniforms are drawn step-major in blocks of shape (block, n_chains),
    so chain k sees the same stream regardless of block size.
    """
    if n_chains < 1 or n_steps < 0:
        raise IndexOutOfRange("need n_chains >= 1 and n_steps >= 0")
    x0 = check_state(MARGINAL_X, fam.N, init)
    rng = make_rng(seed, MARGINAL_X)
    states = np.full(n_chains, x0, dtype=np.int64)

    track = g is not None
    if track:
        if batch_size is None:
            batch_size = max(1, int(np.sqrt(n_steps)))
        n_batches = n_steps // batch_size
        batch_means = np.zeros((n_chains, max(n_batches, 1)), dtype=np.float64)
        batch_acc = np.zeros(n_chains, dtype=np.float64)
        total = np.zeros(n_chains, dtype=np.float64)

    p, q = fam.p, fam.q
    done = 0
    while done < n_steps:
        m = min(block, n_steps - done)
        # step-major draws: step j hands row j to the chains, so the
        # stream seen by chain k does not depend on the block size
        U = rng.random((m, n_chains))
        for j in range(m):
            u = U[j]
            pu = p[states - 1]
            up = u < pu
            down = ~up & (u < pu + q[states - 1])
            states = states + up - down
            if track:
                gv = g(states)
                total += gv
                step = done + j + 1
                batch_acc += gv
                if step % batch_size == 0 and step // batch_size <= n_batches:
                    batch_means[:, step // batch_size - 1] = batch_acc / batch_size
                    batch_acc[:] = 0.0
        done += m

    if not track:
        return EnsembleResult(n_chains, n_steps, states, None, None)
    g_bar = total / n_steps if n_steps > 0 else np.full(n_chains, np.nan)
    ests = [_from_means(float(g_bar[k]), batch_means[k, :n_batches],
                        batch_size, n_steps) for k in range(n_chains)]
    return EnsembleResult(n_chains, n_steps, states, g_bar, ests)


__all__ = [
    "CHAIN_IDS", "make_rng",
    "marginal_step", "dgs_step", "rgs_step",
    "RunConfig", "Trace", "run_chain",
    "EnsembleResult", "run_marginal_ensemble",
]

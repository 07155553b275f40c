"""Simulation correctness: branch logic, reproducibility, and seeded
frequency checks against the exact kernel rows.

The statistical tests run under fixed seeds and were sized so the worst
standardized deviation sits well inside three sigma; they are exact
replays, not flaky Monte Carlo.
"""

import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ergochain import (
    BadScanProbability,
    BadSeed,
    IndexOutOfRange,
    RunConfig,
    StartNotInSupport,
    TooFewSamples,
    build_Pdgs,
    build_Prgs,
    build_Px,
    build_family,
    example_spec,
    make_rng,
    run_chain,
    run_marginal_ensemble,
)
from ergochain.samplers import _BLOCK, _ROWS


@pytest.fixture(scope="module")
def fam50():
    return build_family(example_spec("geometric"), 50)


def _dense(tm):
    return tm.P.toarray()


# -- streams -----------------------------------------------------------------


def test_rng_is_reproducible():
    a = make_rng(7, "marginal_x").random(5)
    b = make_rng(7, "marginal_x").random(5)
    assert np.array_equal(a, b)


def test_rng_streams_are_distinct():
    draws = {k: make_rng(0, k).random(4).tobytes()
             for k in ("marginal_x", "dgs", "rgs")}
    assert len(set(draws.values())) == 3


def test_rng_unknown_kind():
    with pytest.raises(StartNotInSupport):
        make_rng(0, "gibbs")


# -- single-step oracles and their branch logic --------------------------------


def marginal_step(fam, x: int, u: float) -> int:
    """One marginal step: up when u < p_x, down when u < p_x + q_x."""
    p, q = fam.p[x - 1], fam.q[x - 1]
    if u < p:
        return x + 1
    if u < p + q:
        return x - 1
    return x


def dgs_step(fam, y: int, u1: float, u2: float) -> tuple[int, int]:
    """One deterministic-scan step; the row depends on y only."""
    x_new = y + 1 if u1 < fam.beta[y - 1] else y
    y_new = x_new - 1 if u2 < fam.delta[x_new - 1] else x_new
    return x_new, y_new


def rgs_step(fam, x: int, y: int, scan_p: float,
             u1: float, u2: float) -> tuple[int, int]:
    """One random-scan step; exactly one coordinate moves per step."""
    if u1 < scan_p:
        x_new = y + 1 if u2 < fam.beta[y - 1] else y
        return x_new, y
    y_new = x - 1 if u2 < fam.delta[x - 1] else x
    return x, y_new


def test_marginal_step_branches(fam50):
    p, q = fam50.p[4], fam50.q[4]
    assert marginal_step(fam50, 5, 0.0) == 6
    assert marginal_step(fam50, 5, p - 1e-12) == 6
    assert marginal_step(fam50, 5, p) == 4
    assert marginal_step(fam50, 5, p + q - 1e-12) == 4
    assert marginal_step(fam50, 5, p + q) == 5
    assert marginal_step(fam50, 5, 0.999999) == 5


def test_marginal_step_respects_boundaries(fam50):
    # no down-move from 1 and no up-move from N, whatever the uniform
    for u in (0.0, 0.3, 0.7, 0.999999):
        assert marginal_step(fam50, 1, u) in (1, 2)
        assert marginal_step(fam50, 50, u) in (49, 50)


def test_dgs_step_branches(fam50):
    y = 3
    b = fam50.beta[y - 1]
    up = fam50.delta[y]       # x' = 4 case
    flat = fam50.delta[y - 1]  # x' = 3 case
    assert dgs_step(fam50, y, b - 1e-12, up - 1e-12) == (4, 3)
    assert dgs_step(fam50, y, b - 1e-12, up) == (4, 4)
    assert dgs_step(fam50, y, b, flat - 1e-12) == (3, 2)
    assert dgs_step(fam50, y, b, flat) == (3, 3)


def test_dgs_top_state_never_moves_up(fam50):
    # beta_N = 0 because b_N is clipped at the truncation, so from
    # y = N the x-update is deterministic
    for u1 in (0.0, 0.5, 0.999999):
        x_new, _ = dgs_step(fam50, 50, u1, 0.5)
        assert x_new == 50


def test_rgs_step_moves_one_coordinate(fam50):
    x, y, p = 7, 6, 0.4
    b, d = fam50.beta[y - 1], fam50.delta[x - 1]
    assert rgs_step(fam50, x, y, p, 0.0, b - 1e-12) == (7, 6)
    assert rgs_step(fam50, x, y, p, 0.0, b) == (6, 6)
    assert rgs_step(fam50, x, y, p, p, d - 1e-12) == (7, 6)
    assert rgs_step(fam50, x, y, p, p, d) == (7, 7)


# -- run configuration and traces --------------------------------------------


def test_run_config_validation():
    with pytest.raises(StartNotInSupport):
        RunConfig(kind="nope", n_steps=1, seed=0, init=1)
    with pytest.raises(IndexOutOfRange):
        RunConfig(kind="marginal_x", n_steps=-1, seed=0, init=1)
    with pytest.raises(IndexOutOfRange):
        RunConfig(kind="marginal_x", n_steps=1, seed=0, init=1, thin=0)
    for bad_p in (None, 0.0, 1.0, -0.5):
        with pytest.raises(BadScanProbability):
            RunConfig(kind="rgs", n_steps=1, seed=0, init=(1, 1), scan_p=bad_p)


@pytest.mark.parametrize("kind,init", [
    ("marginal_x", 0), ("marginal_x", 51), ("marginal_x", "x"),
    ("dgs", (1, 2)), ("dgs", (3, 1)), ("rgs", (0, 0)), ("rgs", (51, 50)),
    ("marginal_x", 2.7), ("dgs", (2.5, 2)),
])
def test_bad_initial_states(fam50, kind, init):
    cfg = RunConfig(kind=kind, n_steps=5, seed=0, init=init,
                    scan_p=0.5 if kind == "rgs" else None)
    with pytest.raises(StartNotInSupport):
        run_chain(fam50, cfg)


@pytest.mark.parametrize("seed", [-1, 2.7, "3", None])
def test_bad_seeds(fam50, seed):
    # refused, not truncated: 2.7 would otherwise replay the stream of 2
    with pytest.raises(BadSeed):
        make_rng(seed, "marginal_x")
    with pytest.raises(BadSeed):
        run_chain(fam50, RunConfig(kind="dgs", n_steps=5, seed=seed, init=(1, 1)))


def test_integer_like_seeds_share_the_stream():
    a = make_rng(7, "rgs").random(5)
    assert np.array_equal(make_rng(np.int64(7), "rgs").random(5), a)
    assert np.array_equal(make_rng(0, "rgs").random(5),
                          make_rng(np.uint8(0), "rgs").random(5))


def test_identical_seeds_identical_traces(fam50):
    cfg = RunConfig(kind="rgs", n_steps=200, seed=42, init=(3, 3), scan_p=0.3)
    t1, t2 = run_chain(fam50, cfg), run_chain(fam50, cfg)
    assert np.array_equal(t1.xs, t2.xs) and np.array_equal(t1.ys, t2.ys)


def test_shorter_run_is_a_prefix(fam50):
    mk = lambda n: RunConfig(kind="dgs", n_steps=n, seed=9, init=(2, 2))
    long, short = run_chain(fam50, mk(100)), run_chain(fam50, mk(40))
    assert np.array_equal(long.xs[:40], short.xs)
    assert np.array_equal(long.ys[:40], short.ys)


def test_thinning(fam50):
    cfg = RunConfig(kind="marginal_x", n_steps=100, seed=1, init=5, thin=7)
    tr = run_chain(fam50, cfg)
    assert len(tr.xs) == 14
    assert list(tr.steps) == list(range(7, 99, 7))


def test_g_sees_every_step_despite_thinning(fam50):
    g = lambda x: float(x)
    thin = RunConfig(kind="marginal_x", n_steps=500, seed=3, init=5,
                     thin=50, g=g)
    full = RunConfig(kind="marginal_x", n_steps=500, seed=3, init=5, g=g)
    a, b = run_chain(fam50, thin), run_chain(fam50, full)
    assert a.g_mean == b.g_mean
    assert len(a.g_values) == 500 and len(a.xs) == 10


@pytest.mark.parametrize("kind,init", [("marginal_x", 5), ("dgs", (5, 5)),
                                       ("rgs", (5, 5))])
def test_g_called_once_per_distinct_state_of_a_block(fam50, kind, init):
    calls = Counter()

    def g(*state):
        calls[state] += 1
        return float(sum(state))

    n = 2 * _BLOCK + 500
    tr = run_chain(fam50, RunConfig(kind=kind, n_steps=n, seed=6, init=init,
                                    scan_p=0.4 if kind == "rgs" else None,
                                    g=g))
    visited = list(zip(tr.xs.tolist()) if tr.ys is None
                   else zip(tr.xs.tolist(), tr.ys.tolist()))
    per_block = Counter()
    for b in range(0, n, _BLOCK):
        per_block.update(set(visited[b:b + _BLOCK]))
    assert set(calls) == set(visited)
    assert all(calls[st] <= per_block[st] for st in calls)
    assert tr.g_values.tolist() == [float(sum(st)) for st in visited]


@pytest.mark.parametrize("kind,init", [("marginal_x", 5), ("dgs", (5, 5)),
                                       ("rgs", (5, 5))])
def test_g_exception_propagates(fam50, kind, init):
    boom = ValueError("g is undefined at x = 7")

    def g(x, *y):
        if x == 7:
            raise boom
        return 0.0

    cfg = RunConfig(kind=kind, n_steps=5000, seed=2, init=init,
                    scan_p=0.4 if kind == "rgs" else None, g=g)
    with pytest.raises(ValueError) as err:
        run_chain(fam50, cfg)
    assert err.value is boom


@pytest.mark.parametrize("kind,init", [("marginal_x", 1), ("dgs", (1, 1))])
@pytest.mark.parametrize("with_g", [False, True])
def test_run_chain_memory_is_block_plus_thinned_trace(kind, init, with_g):
    # 250 000 steps kept every 250th: beside g_values, only one block of
    # steps and the thinned trace may be live. One int64 a step would
    # hold 2 000 000 B, above the bound
    fam = build_family(example_spec("power-law"), 200)
    g = None
    if with_g:
        g = (lambda x: x / 3) if kind == "marginal_x" else (lambda x, y: x - y)
    cfg = RunConfig(kind=kind, n_steps=250_000, seed=1, init=init,
                    thin=250, g=g)
    tracemalloc.start()
    try:
        tr = run_chain(fam, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = tr.g_values.nbytes if with_g else 0
    assert len(tr.xs) == 1000
    assert peak - held <= 1.5 * 2**20


def test_empty_run(fam50):
    tr = run_chain(fam50, RunConfig(kind="marginal_x", n_steps=0, seed=0,
                                    init=3, g=lambda x: 1.0))
    assert len(tr.xs) == 0 and tr.g_mean is None


def test_rgs_trace_stays_in_support(fam50):
    cfg = RunConfig(kind="rgs", n_steps=500, seed=8, init=(1, 1), scan_p=0.5)
    tr = run_chain(fam50, cfg)
    assert np.all((tr.xs - tr.ys == 0) | (tr.xs - tr.ys == 1))
    # one coordinate per step: consecutive states differ in at most one slot
    dx = np.diff(np.concatenate([[1], tr.xs]))
    dy = np.diff(np.concatenate([[1], tr.ys]))
    assert np.all((dx == 0) | (dy == 0))


@pytest.mark.parametrize("kind,init", [("marginal_x", 5), ("dgs", (5, 5))])
def test_trace_csv_matches_arrays(fam50, kind, init):
    tr = run_chain(fam50, RunConfig(kind=kind, n_steps=500, seed=2,
                                    init=init, thin=3))
    ys = tr.ys if tr.ys is not None else [""] * len(tr.xs)
    rows = [f"{tr.steps[i]},{tr.xs[i]},{ys[i]}" for i in range(len(tr.xs))]
    assert tr.to_csv() == "\n".join(["step,x,y", *rows]) + "\n"


def test_trace_csv_formats(fam50):
    tr = run_chain(fam50, RunConfig(kind="marginal_x", n_steps=3, seed=0, init=5))
    lines = tr.to_csv().splitlines()
    assert lines[0] == "step,x,y" and len(lines) == 4
    assert lines[1].startswith("1,") and lines[1].endswith(",")

    tr2 = run_chain(fam50, RunConfig(kind="dgs", n_steps=3, seed=0, init=(5, 5)))
    cells = tr2.to_csv().splitlines()[1].split(",")
    assert len(cells) == 3 and all(c for c in cells)


# -- frozen traces -------------------------------------------------------------

# SHA-256 of every array a run returns, computed with the per-step loop that
# run_chain used before it drew its uniforms in blocks.  A change to the
# uniform order, the step rule, the thinning or the g bookkeeping shows here.
TRACE_DIGESTS = {
    ("geometric", "marginal_x", 0): "850aba6207dbdc01772a59bf636a9b52e7d53fb2ffda8cb89e95d0891e4a577d",
    ("geometric", "marginal_x", 1): "9bca8c6c013238324f26000ec2e3989990c52142d96f98f3ba3dcd14f93c3676",
    ("geometric", "dgs", 0): "13c690901467f4eb23aa56ef499ff188ad8be9fb212ba7176bfe1cca38025120",
    ("geometric", "dgs", 1): "fae47d56fe4a401657d37476ca1cc3b7691d3a5ce1f9e8a51624a8e0d6ea1e19",
    ("geometric", "rgs", 0): "0acbc4a8dc936f09c4f238dfc742090830413bb1dad9d9682fa99836534817c1",
    ("geometric", "rgs", 1): "100d81bd788c1eaf9657ae9c8f99501b9fea85df59735ab13564459fc37bb726",
    ("power-law", "marginal_x", 0): "f85376d7df930a0a5c399f8e1c413728e7c2351132fc14741420071b2b9fc6b4",
    ("power-law", "marginal_x", 1): "19eeaa197d76ce1f8f2ee5c42a22dc0123de01b6b9c9f83b3812e13f385e21be",
    ("power-law", "dgs", 0): "52f154158a6aca6854f75eccd0a1a29a064edb8b5910d43a57404c7fbe8231a9",
    ("power-law", "dgs", 1): "4cc524425dc8c43d2f13c654b58063a18115ae651985e516c6711a9ea3eec75e",
    ("power-law", "rgs", 0): "736782d535a17788a82c614ef75e3690508e0b72fa9b7f27003dd203105f3503",
    ("power-law", "rgs", 1): "224cf8266f8598c6e365013ff5d2356c286c6da7613f9954d80df401318d27cb",
    # (name, kind, seed, N, thin): the benchmark's size, every step kept
    ("power-law", "dgs", 0, 200, 1): "9de21d2a6684b22a2079f15afae4b4482a00f7db5b4e89b56149b58c302c2aba",
    ("power-law", "rgs", 0, 200, 1): "30611efe983a3a0b09be4759aa33235939cf27b574514bbf53b2158c041fbee5",
}
# keyed (n_chains, n_steps, block size the digest was frozen at); the
# stream must not depend on how the ensemble chunks its draws
ENSEMBLE_DIGESTS = {
    (1, 5000, 8192): "bf7550e7fec8e9ed62141db213689b6a4f38f6d2ade3ea902708e77f13c44aa6",
    (3, 4000, 997): "a4ace9b3752171706601fbac6781cdef29c7f6a7707e801a66b2aebeacb4ad9a",
    # the benchmark's chain count; 8 row chunks of 256 and 45 batches of 44
    (100, 2000, 256): "4e5dd2d5e6b67328b563ea1d8dccc2877ece1da3320e54cc0d73b2b537d01210",
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", [*TRACE_DIGESTS, *ENSEMBLE_DIGESTS],
                         ids=lambda c: "-".join(map(str, c)))
def test_trace_digests_are_frozen(case):
    if case in TRACE_DIGESTS:
        name, kind, seed, *shape = case
        N, thin = shape or (50, 7)
        fam = build_family(example_spec(name), N)
        # 20 000 steps cross the sampler's internal block of uniforms
        cfg = RunConfig(kind=kind, n_steps=20_000, seed=seed,
                        init=1 if kind == "marginal_x" else (1, 1), thin=thin,
                        scan_p=0.3 if kind == "rgs" else None,
                        g=((lambda x: 0.1 * x) if kind == "marginal_x"
                           else (lambda x, y: 0.1 * x + y / 3)))
        tr = run_chain(fam, cfg)
        got = _digest(tr.steps, tr.xs, tr.ys, tr.g_values,
                      np.float64(tr.g_mean))
        assert got == TRACE_DIGESTS[case]
    else:
        n_chains, n_steps, _ = case
        fam = build_family(example_spec("geometric"), 50)
        res = run_marginal_ensemble(fam, n_chains, n_steps, seed=3, init=4,
                                    g=lambda s: 0.1 * s + (s % 3) / 3)
        est = np.array([(e.g_bar, e.sigma2_hat, e.mcse)
                        for e in res.estimates])
        got = _digest(res.final_states, res.g_bar, est)
        assert got == ENSEMBLE_DIGESTS[case]


def _reference_run(fam, cfg):
    """The per-step loop: one step function call per step, over sequential
    scalar draws from make_rng."""
    rng = make_rng(cfg.seed, cfg.kind)
    steps, xs, ys, g_vals = [], [], [], []
    if cfg.kind == "marginal_x":
        x = cfg.init
        for step in range(1, cfg.n_steps + 1):
            x = marginal_step(fam, x, rng.random())
            g_vals.append(cfg.g(x))
            if step % cfg.thin == 0:
                steps.append(step)
                xs.append(x)
        return steps, xs, None, g_vals
    x, y = cfg.init
    for step in range(1, cfg.n_steps + 1):
        if cfg.kind == "dgs":
            x, y = dgs_step(fam, y, rng.random(), rng.random())
        else:
            x, y = rgs_step(fam, x, y, cfg.scan_p, rng.random(), rng.random())
        g_vals.append(cfg.g(x, y))
        if step % cfg.thin == 0:
            steps.append(step)
            xs.append(x)
            ys.append(y)
    return steps, xs, ys, g_vals


@pytest.mark.parametrize("kind", ["marginal_x", "dgs", "rgs"])
@pytest.mark.parametrize("name", ["geometric", "power-law",
                                  "mixed-geometric", "alternating"])
def test_run_chain_matches_step_functions(name, kind):
    fam = build_family(example_spec(name), 50)
    cfg = RunConfig(kind=kind, n_steps=17_000, seed=4,
                    init=3 if kind == "marginal_x" else (3, 3), thin=3,
                    scan_p=0.6 if kind == "rgs" else None,
                    g=((lambda x: x / 7) if kind == "marginal_x"
                       else (lambda x, y: x / 7 - y)))
    tr = run_chain(fam, cfg)
    steps, xs, ys, g_vals = _reference_run(fam, cfg)
    assert tr.steps.tolist() == steps
    assert tr.xs.tolist() == xs
    assert (tr.ys is None and ys is None) or tr.ys.tolist() == ys
    assert tr.g_values.tolist() == g_vals
    assert tr.g_mean == float(np.mean(g_vals))


# -- seeded frequency checks against exact kernel rows ----------------------


def test_one_step_frequencies_match_kernel_rows(fam50):
    n = 100_000

    rng = make_rng(11, "marginal_x")
    P = _dense(build_Px(fam50))
    for x0 in (2, 10, 25):
        u = rng.random(n)
        p, q = fam50.p[x0 - 1], fam50.q[x0 - 1]
        new = np.where(u < p, x0 + 1, np.where(u < p + q, x0 - 1, x0))
        for t in (x0 - 1, x0, x0 + 1):
            prob = P[x0 - 1, t - 1]
            sigma = np.sqrt(n * prob * (1.0 - prob))
            assert abs((new == t).sum() - n * prob) < 3.0 * sigma

    rng = make_rng(11, "dgs")
    tm = build_Pdgs(fam50)
    Pd = _dense(tm)
    for x0, y0 in ((2, 2), (10, 9), (25, 25)):
        u1, u2 = rng.random(n), rng.random(n)
        xn = np.where(u1 < fam50.beta[y0 - 1], y0 + 1, y0)
        yn = np.where(u2 < fam50.delta[xn - 1], xn - 1, xn)
        row = Pd[tm.index_of((x0, y0))]
        for t in np.nonzero(row > 0)[0]:
            tx, ty = tm.states[t]
            cnt = ((xn == tx) & (yn == ty)).sum()
            sigma = np.sqrt(n * row[t] * (1.0 - row[t]))
            assert abs(cnt - n * row[t]) < 3.0 * sigma

    rng = make_rng(11, "rgs")
    tmr = build_Prgs(fam50, 0.5)
    Pr = _dense(tmr)
    for x0, y0 in ((2, 2), (10, 9), (25, 25)):
        u1, u2 = rng.random(n), rng.random(n)
        coin = u1 < 0.5
        xn = np.where(coin, np.where(u2 < fam50.beta[y0 - 1], y0 + 1, y0), x0)
        yn = np.where(coin, y0, np.where(u2 < fam50.delta[x0 - 1], x0 - 1, x0))
        row = Pr[tmr.index_of((x0, y0))]
        for t in np.nonzero(row > 0)[0]:
            tx, ty = tmr.states[t]
            cnt = ((xn == tx) & (yn == ty)).sum()
            sigma = np.sqrt(n * row[t] * (1.0 - row[t]))
            assert abs(cnt - n * row[t]) < 3.0 * sigma


def test_two_step_composition_matches_squared_kernel(fam50):
    n = 100_000
    rng = make_rng(13, "marginal_x")
    states = np.full(n, 10, dtype=np.int64)
    for _ in range(2):
        u = rng.random(n)
        pu = fam50.p[states - 1]
        up = u < pu
        down = ~up & (u < pu + fam50.q[states - 1])
        states = states + up - down
    P = _dense(build_Px(fam50))
    row2 = (P @ P)[9]
    for t in np.nonzero(row2 * n >= 10)[0]:
        prob = row2[t]
        sigma = np.sqrt(n * prob * (1.0 - prob))
        assert abs((states == t + 1).sum() - n * prob) < 3.0 * sigma


def test_rgs_occupation_matches_stationary(fam50):
    from ergochain import spectral_gap

    tr = run_chain(fam50, RunConfig(kind="rgs", n_steps=1_000_000, seed=5,
                                    init=(1, 1), scan_p=0.5))
    tm = build_Prgs(fam50, 0.5)
    # autocorrelation widens the binomial sigma by sqrt((1+r)/(1-r))
    r = spectral_gap(tm).norm_estimate
    inflate = np.sqrt((1.0 + r) / (1.0 - r))
    m = len(tr.xs)
    for k, (sx, sy) in enumerate(tm.states):
        prob = tm.stationary[k]
        if prob < 1e-3:
            continue
        cnt = ((tr.xs == sx) & (tr.ys == sy)).sum()
        sigma = np.sqrt(m * prob * (1.0 - prob)) * inflate
        assert abs(cnt - m * prob) < 3.0 * sigma


def test_dgs_one_step_preserves_stationary():
    fam = build_family(example_spec("geometric"), 20)
    tm = build_Pdgs(fam)
    rng = make_rng(99, "dgs")
    n = 1_000_000
    idx = rng.choice(len(tm.states), size=n, p=tm.stationary)
    ys = np.array([s[1] for s in tm.states], dtype=np.int64)[idx]
    u1, u2 = rng.random(n), rng.random(n)
    xn = np.where(u1 < fam.beta[ys - 1], ys + 1, ys)
    yn = np.where(u2 < fam.delta[xn - 1], xn - 1, xn)
    for k, (sx, sy) in enumerate(tm.states):
        prob = tm.stationary[k]
        if prob < 1e-4:
            continue
        cnt = ((xn == sx) & (yn == sy)).sum()
        sigma = np.sqrt(n * prob * (1.0 - prob))
        assert abs(cnt - n * prob) < 3.0 * sigma


# -- ensemble ----------------------------------------------------------------


def test_ensemble_matches_run_chain(fam50):
    g_vec = lambda s: (s == 1).astype(float)
    res = run_marginal_ensemble(fam50, 1, 5000, seed=3, init=4, g=g_vec)
    tr = run_chain(fam50, RunConfig(kind="marginal_x", n_steps=5000, seed=3,
                                    init=4, g=lambda x: float(x == 1)))
    assert res.final_states[0] == tr.xs[-1]
    assert res.g_bar[0] == tr.g_mean


def test_ensemble_without_g_steps_the_same_chains(fam50):
    # without g the states are updated in place rather than row by row;
    # the stream, and so every final state, is the same
    g_vec = lambda s: (s == 1).astype(float)
    n_steps = 2 * _ROWS + 13
    bare = run_marginal_ensemble(fam50, 7, n_steps, seed=5, init=3)
    full = run_marginal_ensemble(fam50, 7, n_steps, seed=5, init=3, g=g_vec)
    assert bare.g_bar is None and bare.estimates is None
    assert np.array_equal(bare.final_states, full.final_states)


def test_ensemble_argument_validation(fam50):
    with pytest.raises(IndexOutOfRange):
        run_marginal_ensemble(fam50, 0, 10, seed=0, init=1)
    with pytest.raises(StartNotInSupport):
        run_marginal_ensemble(fam50, 1, 10, seed=0, init=0)
    for seed in (-1, 2.7):
        with pytest.raises(BadSeed):
            run_marginal_ensemble(fam50, 1, 10, seed=seed, init=1)
    # fewer than 4 batches is refused before any step is simulated
    def g(states):
        pytest.fail("g called on a run too short for batch means")

    for n_steps, batch_size in ((0, None), (10, None), (100, 0)):
        with pytest.raises(TooFewSamples):
            run_marginal_ensemble(fam50, 1, n_steps, seed=0, init=1, g=g,
                                  batch_size=batch_size)


def test_ensemble_long_run_mean_within_error_bars():
    fam = build_family(example_spec("geometric"), 200)
    res = run_marginal_ensemble(fam, 1, 200_000, seed=17, init=1,
                                g=lambda s: (s == 1).astype(float))
    est = res.estimates[0]
    assert abs(est.g_bar - fam.pi_x[0]) < 3.0 * est.mcse

"""Exact transition matrices, TV curves, and spectral gaps.

Spectral quantities are cross-checked against dense symmetric
eigensolves built here from first principles, independent of the banded
storage and the tridiagonal solver used by the implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergochain import (
    DGS,
    MARGINAL_X,
    RGS,
    BadScanProbability,
    IndexOutOfRange,
    NotSymmetricKernel,
    StartNotInSupport,
    TransitionMatrix,
    build_Pdgs,
    build_Prgs,
    build_Px,
    build_family,
    example_names,
    example_spec,
    spectral_gap,
    table,
    tv_curve,
)
from ergochain import kernels
from ergochain.kernels import _RING, _final_pivot, _lowest_eigenvalue

P1 = 0.5819767068693265     # p_1 of the geometric family, frozen
# each conditional pair sums to 1 to within an ulp, so a kernel entry or
# row sum is a few roundings from exact, whatever the log weights
KERNEL_TOL = 4 * np.finfo(float).eps


def _dense(tm):
    return np.asarray(tm.P.todense())


def _build(f, kind):
    return {MARGINAL_X: build_Px, DGS: build_Pdgs,
            RGS: lambda f: build_Prgs(f, 0.5)}[kind](f)


def _dense_reference(f, kind, s=0.5):
    # every entry of a product kernel from the two conditional laws, one
    # state at a time, with 1 - beta and 1 - delta for the stays
    states = build_Pdgs(f).states
    idx = {st: i for i, st in enumerate(states)}
    P = np.zeros((len(states), len(states)))

    def x_moves(y):
        return [(y + 1, f.beta[y - 1]), (y, 1.0 - f.beta[y - 1])]

    def y_moves(x):
        return [(x - 1, f.delta[x - 1]), (x, 1.0 - f.delta[x - 1])]

    for i, (x, y) in enumerate(states):
        if kind == DGS:
            moves = [((xp, yp), px * py) for xp, px in x_moves(y) if px > 0
                     for yp, py in y_moves(xp)]
        else:
            moves = ([((xp, y), s * px) for xp, px in x_moves(y)]
                     + [((x, yp), (1 - s) * py) for yp, py in y_moves(x)])
        for st, prob in moves:
            if prob > 0:
                P[i, idx[st]] += prob
    return P


# -- marginal chain ----------------------------------------------------------


def test_px_first_row_geometric(fam):
    tm = build_Px(fam("geometric", 4))
    row = _dense(tm)[0]
    assert row == pytest.approx([1.0 - P1, P1, 0.0, 0.0], abs=1e-13)


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("N", [100, 300])
def test_px_row_sums(fam, name, N):
    tm = build_Px(fam(name, N))
    sums = np.asarray(tm.P.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() < 1e-14


@pytest.mark.parametrize("name", example_names())
def test_px_detailed_balance(fam, name):
    f = fam(name, 200)
    P = _dense(build_Px(f))
    flux_up = f.pi_x[:-1] * np.diag(P, 1)
    flux_dn = f.pi_x[1:] * np.diag(P, -1)
    assert np.abs(flux_up - flux_dn).max() < 1e-14
    # both fluxes equal a_x b_x / (a_x + b_x)
    both = f.a[:-1] * f.b[:-1] / (f.a[:-1] + f.b[:-1])
    assert np.abs(flux_up - both).max() < 1e-14


@pytest.mark.parametrize("kind,width", [(MARGINAL_X, 1), (DGS, 2), (RGS, 1)])
def test_kernel_bandwidth(fam, kind, width):
    rows, cols = np.nonzero(_dense(_build(fam("mixed-geometric", 50), kind)))
    assert np.abs(rows - cols).max() == width


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("kind", [DGS, RGS])
def test_product_kernel_matches_reference(fam, name, kind):
    f = fam(name, 40)
    assert (np.abs(_dense(_build(f, kind)) - _dense_reference(f, kind)).max()
            < KERNEL_TOL)


# -- deterministic scan ------------------------------------------------------


def test_dgs_row_from_origin(fam):
    f = fam("geometric", 30)
    tm = build_Pdgs(f)
    row = _dense(tm)[tm.index_of((1, 1))]
    beta1, delta2 = f.beta[0], f.delta[1]
    expect = {(1, 1): 1.0 - beta1,
              (2, 1): beta1 * delta2,
              (2, 2): beta1 * (1.0 - delta2)}
    for state, prob in expect.items():
        assert row[tm.index_of(state)] == pytest.approx(prob, rel=1e-14)
    assert row.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", example_names())
def test_dgs_invariance(fam, name):
    tm = build_Pdgs(fam(name, 100))
    resid = tm.stationary @ tm.P - tm.stationary
    assert np.abs(resid).sum() < 1e-12
    sums = np.asarray(tm.P.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() < 5e-14


def test_dgs_rows_depend_only_on_y(fam):
    tm = build_Pdgs(fam("geometric", 15))
    P = _dense(tm)
    for y in range(1, 15):
        r1 = P[tm.index_of((y, y))]
        r2 = P[tm.index_of((y + 1, y))]
        assert np.array_equal(r1, r2)


def test_dgs_marginalization_recovers_px(fam):
    # averaging the DGS step over pi_{Y|X}(.|x) and projecting on x'
    # must reproduce row x of the marginal chain
    f = fam("geometric", 20)
    tmx = build_Px(f)
    tmd = build_Pdgs(f)
    Pd = _dense(tmd)
    Px = _dense(tmx)
    for x in range(1, 21):
        alpha = f.a[x - 1] / f.pi_x[x - 1]        # P(Y = x | X = x)
        mix = alpha * Pd[tmd.index_of((x, x))]
        if x > 1:
            mix = mix + f.delta[x - 1] * Pd[tmd.index_of((x, x - 1))]
        marg = np.zeros(20)
        for j, (xp, _) in enumerate(tmd.states):
            marg[xp - 1] += mix[j]
        assert np.abs(marg - Px[x - 1]).max() < 1e-14


# -- random scan -------------------------------------------------------------


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_rgs_rejects_degenerate_scan(fam, p):
    with pytest.raises(BadScanProbability):
        build_Prgs(fam("geometric", 10), p)


def test_rgs_known_entry(fam):
    # (4,3) -> (4,4) is the y-update keeping x; frozen product
    # 0.5 * a_4 / (a_4 + b_3) for the geometric family
    tm = build_Prgs(fam("geometric", 30), 0.5)
    val = _dense(tm)[tm.index_of((4, 3)), tm.index_of((4, 4))]
    assert val == pytest.approx(0.10450582328266837, rel=1e-12)


def test_rgs_moves_one_coordinate(fam):
    tm = build_Prgs(fam("mixed-geometric", 25), 0.3)
    P = _dense(tm)
    for i, (x, y) in enumerate(tm.states):
        for j in np.nonzero(P[i])[0]:
            xp, yp = tm.states[j]
            assert xp == x or yp == y
        assert P[i, i] > 0.0      # redraw of the held coordinate


@pytest.mark.parametrize("name", example_names())
def test_rgs_pi_symmetry(fam, name):
    f = fam(name, 20)
    tm = build_Prgs(f, 0.5)
    P = _dense(tm)
    D = tm.stationary[:, None]
    assert np.abs(D * P - (D * P).T).max() < 1e-14


def test_rgs_invariance_three_scans(fam):
    f = fam("geometric", 100)
    for p in (0.3, 0.5, 0.7):
        tm = build_Prgs(f, p)
        resid = tm.stationary @ tm.P - tm.stationary
        assert np.abs(resid).sum() < 1e-12


# -- state indexing ----------------------------------------------------------


def test_index_of_staircase(fam):
    tm = build_Pdgs(fam("geometric", 10))
    assert tm.index_of((1, 1)) == 0
    assert tm.index_of((2, 1)) == 1
    assert tm.index_of((2, 2)) == 2
    assert tm.index_of((10, 10)) == 18
    for bad in [(3, 1), (1, 2), (0, 0), (11, 10), "x", (2.5, 2)]:
        with pytest.raises(StartNotInSupport):
            tm.index_of(bad)


def test_index_of_marginal(fam):
    tm = build_Px(fam("geometric", 10))
    assert tm.index_of(1) == 0
    assert tm.index_of(10) == 9
    for bad in [0, 11, (1, 1), 2.7]:
        with pytest.raises(StartNotInSupport):
            tm.index_of(bad)


@pytest.mark.parametrize("N", [2, 3, 50])
@pytest.mark.parametrize("kind", [MARGINAL_X, DGS, RGS])
def test_state_map_round_trip(fam, kind, N):
    for name in example_names():
        f = fam(name, N)
        tm = _build(f, kind)
        states = tm.states
        assert len(states) == tm.n_states
        for m, s in enumerate(states):
            assert tm.index_of(s) == m
            if kind == MARGINAL_X:
                assert tm.stationary[m] == f.pi_x[s - 1]
            else:
                assert tm.stationary[m] == f.joint(*s)
    if kind != MARGINAL_X:
        assert len(states) == 2 * N - 1
        assert states[:3] == [(1, 1), (2, 1), (2, 2)][:len(states)]
        assert abs(tm.stationary.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("build", [build_Pdgs, lambda f: build_Prgs(f, 0.5)],
                         ids=[DGS, RGS])
def test_kernel_retains_only_bands_and_stationary(fam, build):
    f = fam("power-law", 20_000)
    build(f)                        # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        tm = build(f)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 1.25 * _stored_bytes(tm)


@pytest.mark.parametrize("build", [build_Pdgs, lambda f: build_Prgs(f, 0.5)],
                         ids=[DGS, RGS])
def test_kernel_builds_without_temporaries(fam, build):
    # the diagonals and pi are filled in place: no array beyond them is
    # ever live, and a dgs kernel stores pi alone
    f = fam("power-law", 200_000)
    build(f)
    tracemalloc.start()
    try:
        tm = build(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - _stored_bytes(tm) <= 64 * 1024


def _stored_bytes(tm):
    # the arrays a kernel record holds: pi, and down, stay and up unless dgs
    stored = (tm.stationary,) if tm.kind == DGS else (tm.down, tm.stay, tm.up,
                                                      tm.stationary)
    return sum(a.nbytes for a in stored)


# -- TV curves ---------------------------------------------------------------


def test_tv_at_zero_is_complement_of_start_mass(fam):
    f = fam("geometric", 50)
    tmx = build_Px(f)
    c = tv_curve(tmx, 1, 0)
    assert len(c.values) == 1
    assert c.values[0] == pytest.approx(1.0 - f.pi_x[0], abs=1e-14)
    tmd = build_Pdgs(f)
    c2 = tv_curve(tmd, (2, 1), 0)
    assert c2.values[0] == pytest.approx(1.0 - f.joint(2, 1), abs=1e-14)


def test_tv_monotone_and_sized(fam):
    tm = build_Px(fam("geometric", 100))
    c = tv_curve(tm, 1, 150)
    assert len(c.values) == 151
    assert np.all(np.diff(c.values) <= 1e-15)
    assert c.fitted_rate is not None and 0.0 < c.fitted_rate <= 1.0
    lines = c.to_csv().splitlines()
    assert lines[0] == "n,tv"
    assert len(lines) == 152
    n, tv = lines[3].split(",")
    assert int(n) == 2 and float(tv) == pytest.approx(c.values[2], abs=0)


def test_tv_rate_truncation_stable_geometric(fam):
    r = [tv_curve(build_Px(fam("geometric", N)), 1, 400).fitted_rate
         for N in (100, 200)]
    assert abs(r[0] - r[1]) < 1e-6


def test_tv_rate_grows_with_N_power_law(fam):
    r100 = tv_curve(build_Px(fam("power-law", 100)), 1, 400).fitted_rate
    r200 = tv_curve(build_Px(fam("power-law", 200)), 1, 400).fitted_rate
    assert r200 > r100


def test_tv_short_run_has_no_fit(fam):
    c = tv_curve(build_Px(fam("geometric", 50)), 1, 4)
    assert c.fitted_rate is None and c.fitted_constant is None
    assert c.to_json_dict()["gap"] is None


@pytest.mark.parametrize("kind", [MARGINAL_X, DGS, RGS])
def test_tv_curve_matches_dense_transport(fam, kind):
    # starts at either end and inside, runs that stop before and after the
    # reachable window covers every state (after 15 to 58 steps at N = 30,
    # and 1 or 2 at N = 2), and runs that end just before, at and after a
    # block of _RING steps. The dgs reference is the exact curve: float64
    # powers of the float64 dgs kernel are up to 3e-14 off it at N = 30
    n_maxes = (0, 1, 10, _RING - 1, _RING, _RING + 1, 2 * _RING + 1, 60)
    for N in (2, 30):
        f = fam("mixed-geometric", N)
        tm = _build(f, kind)
        P, n = _dense(tm), tm.n_states
        for i0 in sorted({0, min(3, n - 1), n // 2, n - 1}):
            if kind == DGS:
                ref = _exact_dgs_tv(f, i0, max(n_maxes))
            else:
                v = np.zeros(n)
                v[i0] = 1.0
                ref = []
                for _ in range(max(n_maxes) + 1):
                    ref.append(0.5 * np.abs(v - tm.stationary).sum())
                    v = v @ P
            for n_max in n_maxes:
                c = tv_curve(tm, tm.states[i0], n_max)
                assert c.values == pytest.approx(ref[:n_max + 1], abs=1e-14)


def _exact_dgs_tv(f, i0, n_max):
    # TV after n = 0..n_max dgs sweeps from staircase state i0, at 40
    # digits from the family's log weights: a sweep draws x' given y, then
    # y' given x'
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        joint, x_law, y_law = _exact_laws(f, mpmath)
        states = build_Pdgs(f).states
        idx = {st: i for i, st in enumerate(states)}
        pi = [joint(*st) for st in states]
        total = sum(pi)
        pi = [w / total for w in pi]
        mu = [mpmath.mpf(i == i0) for i in range(len(states))]
        ref = []
        for _ in range(n_max + 1):
            ref.append(float(sum(abs(m - w) for m, w in zip(mu, pi)) / 2))
            nxt = [mpmath.mpf(0)] * len(states)
            for (x, y), m in zip(states, mu):
                for xp, px in x_law(y).items():
                    for yp, py in y_law(xp).items():
                        nxt[idx[(xp, yp)]] += m * px * py
            mu = nxt
        return ref


def _longdouble_tv(tm, n_max):
    # the plain transport of delta_0 - pi over every state, in long double,
    # from the float64 kernel
    P_T = tm.P.T.astype(np.longdouble).tocsr()
    d = -tm.stationary.astype(np.longdouble)
    d[0] += 1
    ref = [0.5 * np.abs(d).sum()]
    for _ in range(n_max):
        d = P_T @ d
        ref.append(0.5 * np.abs(d).sum())
    return np.array(ref, dtype=float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="reference needs extended-precision long double")
def test_tv_curve_tail_matches_extended_precision(fam):
    # geometric mixes fast, so after 400 steps TV is near 1e-12 (marginal
    # and dgs) and a transport of the distribution itself loses about 3
    # digits there
    f = fam("geometric", 200)
    la, lb = f.log_a.astype(np.longdouble), f.log_b.astype(np.longdouble)
    a, b = np.exp(la), np.exp(lb)
    b_prev = np.concatenate(([0.0], b[:-1])).astype(np.longdouble)
    pix, piy = a + b_prev, a + b
    p = a * b / (pix * piy)
    q = np.concatenate(([0.0], a[:-1] * b[:-1] / piy[:-1])) / pix
    pi = pix / pix.sum()
    d = -pi
    d[0] += 1
    ref = [0.5 * np.abs(d).sum()]
    for _ in range(400):
        d = d * (1 - p - q) + np.concatenate(([0.0], d[:-1] * p[:-1])) \
            + np.concatenate((d[1:] * q[1:], [0.0]))
        ref.append(0.5 * np.abs(d).sum())
    cases = [(build_Px(f), 1, np.array(ref, dtype=float))]
    cases += [(tm, (1, 1), _longdouble_tv(tm, 400))
              for tm in (build_Pdgs(f), build_Prgs(f, 0.5))]
    for tm, start, ref in cases:
        c = tv_curve(tm, start, 400)
        assert np.max(np.abs(c.values - ref) / ref) < 5e-4
        ref_rate = np.exp(np.polyfit(np.arange(201, 401), np.log(ref[201:]), 1)[0])
        assert c.fit_window == (201, 400)
        assert c.fitted_rate == pytest.approx(ref_rate, abs=1e-6)


def test_dgs_tv_curve_from_the_top_state_stays_within_one():
    # from (N, N) at N = 2000 pi(start) underflows and TV is 1 to rounding;
    # the pentadiagonal transport printed 1 + 2.1e-11 here
    tm = build_Pdgs(build_family(example_spec("geometric"), 2000))
    c = tv_curve(tm, (2000, 2000), 400)
    assert c.values.max() <= 1.0 + 8 * tm.n_states * np.finfo(float).eps


def test_dgs_and_marginal_fitted_rates_agree():
    f = build_family(example_spec("geometric"), 200)
    dgs = tv_curve(build_Pdgs(f), (1, 1), 400).fitted_rate
    assert dgs == pytest.approx(tv_curve(build_Px(f), 1, 400).fitted_rate, abs=1e-9)


_ENTRY = st.floats(1e-300, 1e300)
_TABLES = st.builds(table, st.lists(_ENTRY, min_size=1, max_size=8).map(tuple),
                    st.lists(_ENTRY, min_size=1, max_size=8).map(tuple),
                    tail_ratio=st.floats(0.01, 0.999))


@settings(max_examples=30, deadline=None)
@given(spec=_TABLES, N=st.integers(2, 60))
def test_dgs_curve_is_the_marginal_curve_after_one_sweep(spec, N):
    # one sweep from (x, y) leaves x' = y w.p. 1 - beta_y and y + 1 w.p.
    # beta_y, and y' ~ pi(.|x'); so values[n] is TV(mu_1 Px^(n-1), pi_x),
    # here from a dense transport of mu_1 - pi_x. values[0] is
    # 1 - pi(start) up to half of pi's rounding off a total of one
    f = build_family(spec, N)
    tm, P = build_Pdgs(f), _dense(build_Px(f))
    n_max = 2 * _RING + 40
    for i0, start in enumerate(tm.states):
        delta = np.zeros(tm.n_states)
        delta[i0] = 1.0
        c = tv_curve(tm, start, n_max)
        assert c.values[0] == pytest.approx(0.5 * np.abs(delta - tm.stationary).sum(),
                                            abs=1e-14)
        assert c.values[0] == pytest.approx(1.0 - f.joint(*start),
                                            abs=1e-14 + abs(tm.stationary.sum() - 1))
        y = start[1]
        d = -f.pi_x
        d[y - 1:y + 1] += [1.0 - f.beta[y - 1], f.beta[y - 1]][:N - y + 1]
        ref = []
        for _ in range(n_max):
            ref.append(0.5 * np.abs(d).sum())
            d = d @ P
        assert c.values[1:] == pytest.approx(ref, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(spec=_TABLES, N=st.integers(2, 60), scan_p=st.floats(0.01, 0.99))
# log weights near -513: a pair formed from two exps summed to 1 + 5.5e-14
@example(spec=table((1.0, 4.568827173079522e+222), (1.0,), tail_ratio=0.5),
         N=2, scan_p=0.5)
def test_kernels_of_any_table_are_stochastic_with_pi_stationary(spec, N, scan_p):
    # rows sum to one, pi P = pi (in L1, as test_dgs_invariance), detailed
    # balance for Px and Prgs (entrywise, as test_rgs_pi_symmetry) and the
    # product kernels equal the reference from the conditional laws, to
    # KERNEL_TOL however large the log weights
    f = build_family(spec, N)
    for kind, tm in ((MARGINAL_X, build_Px(f)), (DGS, build_Pdgs(f)),
                     (RGS, build_Prgs(f, scan_p))):
        P = _dense(tm)
        assert np.abs(P.sum(axis=1) - 1.0).max() < KERNEL_TOL
        assert np.abs(tm.stationary @ P - tm.stationary).sum() < 1e-12
        if kind != DGS:
            flux = tm.stationary[:, None] * P
            assert np.abs(flux - flux.T).max() < 1e-14
        if kind != MARGINAL_X:
            assert np.abs(P - _dense_reference(f, kind, scan_p)).max() < KERNEL_TOL


def test_tv_curve_allocates_only_the_window(fam):
    # 100 dgs steps reach 201 of the 39 999 states: beyond the difference
    # vector and the curve, nothing should scale with the state count
    tm = build_Pdgs(fam("power-law", 20_000))
    tv_curve(tm, (1, 1), 100)       # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        tv_curve(tm, (1, 1), 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= tm.stationary.nbytes + 64 * 1024


def test_wide_tv_curve_keeps_its_ring_in_cache(fam):
    # 5 000 dgs steps reach 5 001 states, where 64 ring rows would take
    # 2.6 MB: the blocks shorten to 16 steps, so the ring holds 16 rows.
    # The other working arrays are a few rows of the range each
    tm = build_Pdgs(fam("power-law", 20_000))
    tv_curve(tm, (1, 1), 100)       # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        tv_curve(tm, (1, 1), 5_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = 8 * 5_003
    assert peak <= 16 * row + 16 * row + 64 * 1024


def test_long_tv_curve_allocates_only_its_values(fam):
    # 10^5 steps on 5 states: the curve is the one array as long as the run
    tm = build_Px(fam("geometric", 5))
    tv_curve(tm, 1, 100)            # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        c = tv_curve(tm, 1, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= c.values.nbytes + 64 * 1024


def _polyfit_rate(values):
    # the fit as a whole-window np.polyfit: the trailing half of the steps
    # n >= 1 with TV above the floor
    usable = np.flatnonzero(values > kernels._TV_FLOOR)
    usable = usable[usable >= 1]
    half = usable[len(usable) // 2:]
    if len(half) < 5:
        return None, None, None
    slope, intercept = np.polyfit(half, np.log(values[half]), 1)
    return (min(float(np.exp(slope)), 1.0), float(np.exp(intercept)),
            (int(half[0]), int(half[-1])))


def _synthetic_curves():
    rng = np.random.default_rng(12)
    for n in (4, 10, kernels._FIT_BLOCK + 1, 100_000, 1_000_000):
        for r in (0.5, 0.99, 1 - 1e-7):
            v = 0.7 * r ** np.arange(n + 1.0) * np.exp(1e-3 * rng.standard_normal(n + 1))
            yield v
            # steps below the floor scattered through the curve
            v = v.copy()
            v[rng.random(n + 1) < 0.3] = 0.0
            yield v


def test_fit_rate_matches_polyfit(fam):
    curves = [tv_curve(_build(fam(name, N), kind), 1 if kind == MARGINAL_X else (1, 1),
                       n).values
              for name in example_names() for N in (10, 200)
              for kind in (MARGINAL_X, DGS, RGS) for n in (10, 400)]
    for values in [*curves, *_synthetic_curves()]:
        rate, const, window = kernels._fit_rate(values)
        ref_rate, ref_const, ref_window = _polyfit_rate(values)
        assert window == ref_window
        if ref_rate is None:
            assert rate is None and const is None
        else:
            assert rate == pytest.approx(ref_rate, rel=1e-10, abs=0.0)
            assert const == pytest.approx(ref_const, rel=1e-10, abs=0.0)


def test_fit_rate_allocates_a_block_not_the_window():
    # a million steps that stay above the floor: the fit window is half
    # a million steps, and a whole-window fit peaks above 30 MiB
    values = 0.7 * (1 - 1e-7) ** np.arange(1_000_001.0)
    kernels._fit_rate(values[:100])     # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        _, _, window = kernels._fit_rate(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window == (500_001, 1_000_000)
    assert peak <= 2**20


@pytest.mark.parametrize("build", [build_Px, build_Pdgs], ids=[MARGINAL_X, DGS])
def test_tv_curve_memory_is_sized_by_the_reachable_states(fam, build):
    # 10 steps from the middle reach at most 41 of the 200 000 or more
    # states, so not even the difference vector may scale with N
    tm = build(fam("geometric", 200_000))
    start = tm.states[tm.n_states // 2]
    tv_curve(tm, start, 10)         # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        tv_curve(tm, start, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_tv_curve_argument_errors(fam):
    tm = build_Px(fam("geometric", 20))
    with pytest.raises(IndexOutOfRange):
        tv_curve(tm, 1, -1)
    with pytest.raises(StartNotInSupport):
        tv_curve(tm, 21, 10)


def test_tv_curve_refuses_a_dgs_kernel_without_its_family(fam):
    # a dgs curve rides the x-marginal chain read from the kernel's family,
    # and its P is formed from the family's two updates; a hand-made kernel
    # without one gets one package error, not AttributeError
    built = build_Pdgs(fam("geometric", 20))
    tm = TransitionMatrix(kind=DGS, down=None, stay=None, up=None,
                          stationary=built.stationary, N=built.N)
    for use in (lambda: tv_curve(tm, (1, 1), 5), lambda: tm.P):
        with pytest.raises(IndexOutOfRange, match="^dgs kernel has no family") as err:
            use()
        assert "\n" not in str(err.value)


# -- spectral gaps -----------------------------------------------------------


def test_two_state_flat_chain_has_zero_norm():
    half = np.array([0.5])
    tm = TransitionMatrix(kind=MARGINAL_X, down=half, stay=np.array([0.5, 0.5]),
                          up=half, stationary=np.array([0.5, 0.5]), N=2)
    g = spectral_gap(tm)
    assert g.norm_estimate == pytest.approx(0.0, abs=1e-14)
    assert g.gap == pytest.approx(1.0, abs=1e-14)


def test_two_state_gaps_match_dense_eigensolve(fam):
    # Fact 6: Px and Prgs are positive semidefinite, so the gap is
    # lambda_min(E) alone. At N = 2, where E has one (marginal) or two (rgs)
    # eigenvalues near 1, rounding decides whether the gap passes 1; the
    # dense spectrum has no eigenvalue below 0 and the gap matches it
    rng = np.random.default_rng(20261018)
    families = [fam(name, 2) for name in example_names()]
    for _ in range(8):
        m = int(rng.integers(1, 6))
        spec = table(tuple(np.exp(rng.normal(size=m))), tuple(np.exp(rng.normal(size=m))),
                     tail_ratio=float(0.3 + 0.5 * rng.random()))
        families.append(build_family(spec, 2))
    for f in families:
        for tm in (build_Px(f), *(build_Prgs(f, s) for s in (0.1, 0.5, 0.9))):
            d = np.sqrt(tm.stationary)
            S = (d[:, None] / d[None, :]) * _dense(tm)
            ev = np.linalg.eigvalsh((S + S.T) / 2.0)
            assert ev[0] >= -1e-15 and ev[-1] == pytest.approx(1.0, abs=1e-15)
            g = spectral_gap(tm)
            assert 0.0 <= g.gap <= 1.0
            assert g.gap == pytest.approx(1.0 - ev[-2], abs=1e-15)


def test_positive_definite_matches_dense_eigensolve():
    # every length 1-64, so that the odd-even reduction meets every shape of
    # odd and even tails; squared off-diagonals from 0 down to 1e-300;
    # diagonals of both signs, or positive down to 1e-300, whose tiny pivots
    # overflow the reduction at the shift 0; shifts on both sides of both
    # ends of the spectrum
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    checked = last_only = 0
    for n in range(1, 65):
        for draw in range(6):
            d = (10.0 ** rng.uniform(-300, 0, n) if draw % 2
                 else rng.uniform(-1.0, 1.0, n))
            c = 10.0 ** rng.uniform(-300, 0, n - 1)
            c[rng.random(n - 1) < 0.2] = 0.0
            off = np.sqrt(c)
            ev = np.linalg.eigvalsh(np.diag(d) + np.diag(off, 1) + np.diag(off, -1))
            norm = np.abs(ev).max()
            near = norm * 10.0 ** rng.uniform(-14, 0, 4)
            sigmas = np.r_[ev[0] - near[0], ev[0] + near[1], ev[-1] - near[2],
                           ev[-1] + near[3], rng.uniform(ev[0], ev[-1], 2), 0.0]
            for sigma in sigmas:
                # run at every shift, so that no RuntimeWarning escapes, and
                # compare where rounding cannot decide the answer
                resolved = np.abs(ev - sigma).min() > 8 * eps * norm
                for sign in (1.0, -1.0):
                    last = _final_pivot(sign * d, c, sign * sigma)
                    answer = last > 0.0
                    if resolved:
                        assert answer == bool((sign * (ev - sigma) > 0).all())
                        checked += 1
                        # only the last pivot <= 0: one eigenvalue below
                        if last <= 0.0:
                            assert (sign * (ev - sigma) < 0).sum() == 1
                            last_only += 1
    assert checked > 4000
    assert last_only > 100


def test_gap_of_a_tiny_kernel_scales_with_it(fam):
    # every move of the chain scaled by 2^-600: E and its gap scale alike,
    # while the squared off-diagonals of E would underflow unscaled
    tm = build_Px(fam("geometric", 30))
    tiny = 2.0 ** -600
    up, down = tm.up * tiny, tm.down * tiny
    slow = TransitionMatrix(
        kind=MARGINAL_X, stationary=tm.stationary, N=tm.N, down=down,
        stay=1.0 - np.r_[up, 0.0] - np.r_[0.0, down], up=up)
    assert spectral_gap(slow).gap == pytest.approx(
        spectral_gap(tm).gap * tiny, rel=1e-12)


def _dense_second_modulus(tm):
    # independent route: dense symmetrization and full eigensolve
    P = _dense(tm)
    d = np.sqrt(tm.stationary)
    S = (d[:, None] / d[None, :]) * P
    ev = np.linalg.eigvalsh((S + S.T) / 2.0)
    ev = np.sort(np.abs(ev))[::-1]
    assert ev[0] == pytest.approx(1.0, abs=1e-10)
    return ev[1]


@pytest.mark.parametrize("name", example_names())
def test_marginal_gap_matches_dense_eigensolve(fam, name):
    tm = build_Px(fam(name, 120))
    g = spectral_gap(tm)
    assert g.method == "tridiagonal"
    assert g.norm_estimate == pytest.approx(_dense_second_modulus(tm), abs=1e-11)


@pytest.mark.parametrize("name", example_names())
def test_rgs_gap_matches_dense_eigensolve(fam, name):
    tm = build_Prgs(fam(name, 60), 0.5)
    g = spectral_gap(tm)
    assert g.method == "tridiagonal"
    assert g.norm_estimate == pytest.approx(_dense_second_modulus(tm), abs=1e-11)


def test_rgs_gap_finite_at_large_N(fam):
    # 1/sqrt(pi) overflows here, so the gap must come from the diagonals alone
    g200 = spectral_gap(build_Prgs(fam("geometric", 200), 0.5)).gap
    g1000 = spectral_gap(build_Prgs(fam("geometric", 1000), 0.5)).gap
    assert math.isfinite(g1000)
    assert g1000 == pytest.approx(g200, abs=1e-4)


def test_dgs_gap_refused(fam):
    with pytest.raises(NotSymmetricKernel):
        spectral_gap(build_Pdgs(fam("geometric", 20)))


def _hand_made(up, down, stationary):
    up, down = np.array(up), np.array(down)
    stay = 1.0 - np.r_[up, 0.0] - np.r_[0.0, down]
    return TransitionMatrix(kind=MARGINAL_X, down=down, stay=stay, up=up,
                            stationary=np.array(stationary), N=len(stay))


def test_flip_chain_gap_refused():
    # eigenvalues 1 and -0.8: the second-largest modulus is 0.8, not the
    # 1 - lambda_min(E) = -0.8 a positive semidefinite kernel would give
    with pytest.raises(NotSymmetricKernel):
        spectral_gap(_hand_made([0.9], [0.9], [0.5, 0.5]))


def test_small_negative_eigenvalue_keeps_the_gap():
    # eigenvalues 1, 0.02 + sqrt(0.02) and 0.02 - sqrt(0.02): the Gershgorin
    # bound of E, 1.18, exceeds 2 - gap = 1.16, so the ceiling test runs and
    # passes
    pi = np.array([1.0, 9.8, 9.8 * 0.1 / 0.78])
    tm = _hand_made([0.98, 0.1], [0.1, 0.78], pi / pi.sum())
    g = spectral_gap(tm)
    assert g.gap == pytest.approx(0.98 - math.sqrt(0.02), abs=1e-15)
    assert g.norm_estimate == pytest.approx(_dense_second_modulus(tm), abs=1e-14)


def test_geometric_gap_converges_with_N(fam):
    # second eigenvalue approaches the essential edge like 1/N^2, so the
    # gap decreases toward a positive limit and successive differences
    # shrink by about a factor of four per doubling
    gaps = [spectral_gap(build_Px(fam("geometric", N))).gap
            for N in (100, 200, 400)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.05
    assert abs(gaps[1] - gaps[2]) < abs(gaps[0] - gaps[1])


def test_power_law_gap_vanishes_with_N(fam):
    gaps = [spectral_gap(build_Px(fam("power-law", N))).gap
            for N in (100, 200, 400)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[2] < 1e-4


def test_spectral_gap_json_shape(fam):
    d = spectral_gap(build_Px(fam("geometric", 50))).to_json_dict()
    assert set(d) == {"rate", "constant", "gap", "N"}
    assert d["constant"] is None
    assert d["rate"] == pytest.approx(1.0 - d["gap"], abs=0)


@pytest.mark.parametrize("name", ["mixed-geometric", "alternating"])
@pytest.mark.parametrize("kind", [MARGINAL_X, RGS])
def test_unresolved_gap_is_exactly_zero(fam, name, kind):
    # these gaps lie below float64 resolution at N = 200; the bisection's
    # noise (3e-17 on the alternating marginal) is not a gap
    g = spectral_gap(_build(fam(name, 200), kind))
    assert g.gap == 0.0 and g.norm_estimate == 1.0


def test_random_table_gaps_match_dense_eigensolve():
    # entries 10^U(-300, 0) make kernels whose symmetrization LAPACK's
    # bisection could not converge on; the gap must come out finite and
    # agree with the dense solve wherever D^{1/2} P D^{-1/2} is finite
    rng = np.random.default_rng(20261018)
    compared = 0
    for _ in range(150):
        N = int(rng.integers(2, 31))
        a, b = (tuple(10.0 ** rng.uniform(-300, 0, int(rng.integers(1, N + 1))))
                for _ in range(2))
        f = build_family(table(a, b, tail_ratio=float(rng.uniform(0.01, 0.99))), N)
        for tm in (build_Px(f), build_Prgs(f, float(rng.uniform(0.01, 0.99)))):
            g = spectral_gap(tm).gap
            assert 0.0 <= g <= 1.0
            with np.errstate(all="ignore"):
                d = np.sqrt(tm.stationary)
                S = (d[:, None] / d[None, :]) * _dense(tm)
            if np.isfinite(S).all():
                ev = np.sort(np.abs(np.linalg.eigvalsh((S + S.T) / 2.0)))
                assert g == pytest.approx(1.0 - ev[-2], abs=1e-12)
                compared += 1
    assert compared > 200


def _gap_kernels(fam):
    # both chains of the four built-ins and of eight tables drawn like
    # acceptance criterion 2, at three truncation levels
    rng = np.random.default_rng(20261018)
    families = [lambda N, name=name: fam(name, N) for name in example_names()]
    for _ in range(8):
        m = int(rng.integers(1, 6))
        spec = table(tuple(np.exp(rng.normal(size=m))), tuple(np.exp(rng.normal(size=m))),
                     tail_ratio=float(0.3 + 0.5 * rng.random()))
        families.append(lambda N, spec=spec: build_family(spec, N))
    for family in families:
        for N in (25, 200, 2000):
            f = family(N)
            yield build_Px(f)
            yield build_Prgs(f, 0.5)


def _positive_definite(d, c, sigma):
    return _final_pivot(d, c, sigma) > 0.0


def _bisection(tm):
    # the gap by plain bisection on the tests spectral_gap makes, on the
    # same scaled edge matrix: its gap, the number of tests it made, and
    # the tolerance both solvers resolve to
    up, down = tm.up, tm.down
    off = np.sqrt(down[:-1]) * np.sqrt(up[1:])
    bound = np.max(up + down + np.r_[0.0, off] + np.r_[off, 0.0])
    scale = np.ldexp(1.0, np.frexp(bound)[1])
    d, c = (up + down) / scale, (down[:-1] / scale) * (up[1:] / scale)
    top, tol = bound / scale, np.finfo(float).eps * bound / scale
    tests = 0

    def positive(d, sigma):
        nonlocal tests
        tests += 1
        return _positive_definite(d, c, sigma)

    def lowest(d, lo, hi):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if positive(d, mid) else (lo, mid)
        return 0.5 * (lo + hi)

    low = lowest(d, tol, top) if positive(d, tol) else 0.0
    if not positive(-d, low - 2.0 / scale):
        low = min(low, 2.0 / scale + lowest(-d, -top, low - 2.0 / scale))
    return float(np.clip(low * scale, 0.0, 1.0)), tests, tol * scale


def test_gap_solver_makes_fewer_tests_than_bisection(fam, monkeypatch):
    # regula falsi on the last pivot must save tests overall and cost at
    # most two more than bisection on any kernel, for a gap within the
    # tolerance of bisection's
    made = 0

    def counted(*args):
        nonlocal made
        made += 1
        return _final_pivot(*args)

    monkeypatch.setattr(kernels, "_final_pivot", counted)
    total = total_bisection = 0
    for tm in _gap_kernels(fam):
        made = 0
        gap = spectral_gap(tm).gap
        ref, ref_tests, tol = _bisection(tm)
        assert made <= ref_tests + 2
        assert gap == pytest.approx(ref, abs=tol)
        total += made
        total_bisection += ref_tests
    assert total <= 0.8 * total_bisection


def test_gap_brackets_are_certified(fam, monkeypatch):
    # every eigenvalue spectral_gap resolves ends in a bracket no wider than
    # tol whose lower end is tested positive definite and upper end is not
    brackets = []

    def recorded(d, c, lo, f_lo, hi, f_hi, tol):
        bracket = _lowest_eigenvalue(d, c, lo, f_lo, hi, f_hi, tol)
        brackets.append((d.copy(), c, tol) + bracket)    # d changes later
        return bracket

    monkeypatch.setattr(kernels, "_lowest_eigenvalue", recorded)
    for tm in _gap_kernels(fam):
        before = len(brackets)
        gap = spectral_gap(tm).gap
        assert (len(brackets) > before) == (gap > 0.0)
    assert len(brackets) > 50
    for d, c, tol, lo, hi in brackets:
        assert _positive_definite(d, c, lo)
        assert not _positive_definite(d, c, hi)
        assert hi - lo <= tol


@pytest.mark.parametrize("name", ["geometric", "power-law"])
@pytest.mark.parametrize("N", [20, 200, 2000])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_three_chain_identity(fam, name, N, s):
    # the random-scan gap is a function of the marginal gap g alone
    f = fam(name, N)
    stg = s * (1.0 - s) * spectral_gap(build_Px(f)).gap
    expected = 2.0 * stg / (1.0 + math.sqrt(1.0 - 4.0 * stg))
    assert spectral_gap(build_Prgs(f, s)).gap == pytest.approx(expected, abs=1e-14)


def _exact_laws(f, mpmath):
    # pi(x, y) = a_x 1(x = y) + b_y 1(x = y + 1) from the family's log
    # weights and its two conditional laws, at mpmath's working precision
    a = [mpmath.exp(mpmath.mpf(float(v))) for v in f.log_a]
    b = [mpmath.exp(mpmath.mpf(float(v))) for v in f.log_b[:-1]] + [0]

    def joint(x, y):
        if y < 1:
            return 0
        return a[y - 1] if x == y else b[y - 1] if x == y + 1 else 0

    def x_law(y):
        return {x: joint(x, y) / (a[y - 1] + b[y - 1]) for x in (y, y + 1)
                if joint(x, y)}

    def y_law(x):
        return {y: joint(x, y) / (joint(x, x - 1) + a[x - 1])
                for y in (x - 1, x) if joint(x, y)}

    return joint, x_law, y_law


def _exact_gap(f, kind, s=0.5):
    # 1 - second eigenvalue modulus at 60 digits, with every transition
    # built from the two conditional laws and pi-symmetrized with sqrt(pi)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        joint, x_law, y_law = _exact_laws(f, mpmath)
        if kind == MARGINAL_X:
            states = list(range(1, f.N + 1))
            pi = [joint(x, x) + joint(x, x - 1) for x in states]

            def moves(x):
                out = {}
                for y, py in y_law(x).items():
                    for xp, px in x_law(y).items():
                        out[xp] = out.get(xp, 0) + py * px
                return out
        else:
            states = build_Pdgs(f).states
            pi = [joint(*st) for st in states]

            def moves(st):
                x, y = st
                out = {}
                for xp, px in x_law(y).items():
                    out[(xp, y)] = out.get((xp, y), 0) + s * px
                for yp, py in y_law(x).items():
                    out[(x, yp)] = out.get((x, yp), 0) + (1 - s) * py
                return out

        idx = {st: i for i, st in enumerate(states)}
        S = mpmath.zeros(len(states))
        for i, st in enumerate(states):
            for to, prob in moves(st).items():
                j = idx[to]
                S[i, j] += mpmath.sqrt(pi[i] / pi[j]) * prob
        ev = sorted(mpmath.eigsy((S + S.T) / 2, eigvals_only=True))
        return float(1 - max(ev[-2], -ev[0]))


@pytest.mark.parametrize("name", ["geometric", "power-law"])
@pytest.mark.parametrize("kind", [MARGINAL_X, RGS])
def test_gap_matches_exact_reference(fam, name, kind):
    f = fam(name, 25)
    assert spectral_gap(_build(f, kind)).gap == pytest.approx(
        _exact_gap(f, kind), rel=1e-12)


@pytest.mark.parametrize("name", ["mixed-geometric", "alternating"])
@pytest.mark.parametrize("kind", [MARGINAL_X, RGS])
def test_slow_gap_matches_exact_reference(fam, name, kind):
    # these gaps (about 5e-11 at N = 25) are resolved to the bisection's
    # absolute tolerance, eps times the Gershgorin bound of the edge matrix
    # E, which is about 1e-5 of them, so they are pinned to that tolerance
    f = fam(name, 25)
    tm = _build(f, kind)
    up, down = tm.up, tm.down
    off = np.sqrt(down[:-1]) * np.sqrt(up[1:])
    tol = np.finfo(float).eps * np.max(up + down + np.r_[0.0, off] + np.r_[off, 0.0])
    assert spectral_gap(tm).gap == pytest.approx(_exact_gap(f, kind), abs=tol)


def _random_tables(seed, count):
    # table specs drawn like acceptance criterion 2's
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 6))
        yield table(tuple(np.exp(rng.normal(size=m))), tuple(np.exp(rng.normal(size=m))),
                    tail_ratio=float(0.3 + 0.5 * rng.random()))


@pytest.mark.parametrize("ring", [_RING, 5, 1])
@pytest.mark.parametrize("kind", [MARGINAL_X, RGS])
def test_tv_curve_matches_dense_transport_on_tables(kind, ring, monkeypatch):
    # runs that end just before, at and just after the end of a block of
    # ring steps, after an odd and after an even number of steps, so that
    # the last step may have written either of the two buffers the steps
    # alternate between, from either end and the middle of small and large
    # tables; an odd ring also ends blocks before the last after an odd
    # number, and a ring of 1 makes every step its own block. The
    # reference is a dense transport of the difference from pi, as in the
    # dgs test above: a float64 kernel's rows sum to one only to rounding,
    # so dense powers of the point mass itself drift by about n eps
    # (1.5e-14 after 401 steps at N = 3)
    monkeypatch.setattr(kernels, "_RING", ring)
    n_maxes = sorted({0, 1, ring - 1, ring, ring + 1, 2 * ring - 1, 2 * ring + 1,
                      3 * ring - 1, 400, 401})
    for spec in _random_tables(20261019, 3):
        for N in (2, 3, 30, 200):
            tm = _build(build_family(spec, N), kind)
            P, n = _dense(tm), tm.n_states
            for i0 in sorted({0, n // 2, n - 1}):
                d = -tm.stationary
                d[i0] += 1.0
                ref = []
                for _ in range(max(n_maxes) + 1):
                    ref.append(0.5 * np.abs(d).sum())
                    d = d @ P
                for n_max in n_maxes:
                    c = tv_curve(tm, tm.states[i0], n_max)
                    assert c.values == pytest.approx(ref[:n_max + 1], abs=1e-14)


@pytest.mark.parametrize("name, sizes, budget", [
    ("power-law", (25, 200, 2000, 20000), 18),
    ("mixed-geometric", (25,), 30),
    ("alternating", (25,), 30),
])
def test_gap_trial_budget(fam, monkeypatch, name, sizes, budget):
    # log-scale trials while the bracket spans more than a factor of 4
    # reach gaps far below the Gershgorin bound in a few tests: power-law's
    # 6e-9 at N = 20 000 took 37 midpoint tests, mixed-geometric's 5.7e-11
    # at N = 25 took 48 to 52
    made = 0

    def counted(*args):
        nonlocal made
        made += 1
        return _final_pivot(*args)

    monkeypatch.setattr(kernels, "_final_pivot", counted)
    for N in sizes:
        f = fam(name, N)
        for tm in (build_Px(f), build_Prgs(f, 0.5)):
            made = 0
            assert spectral_gap(tm).gap > 0.0
            assert made <= budget

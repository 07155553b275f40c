"""Exact transition matrices, TV curves, and spectral gaps.

Spectral quantities are cross-checked against dense symmetric
eigensolves built here from first principles, independent of the banded
storage and the tridiagonal solver used by the implementation.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergochain
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
    example_names,
    spectral_gap,
    tv_curve,
)
from ergochain.kernels import log_expect

P1 = 0.5819767068693265     # p_1 of the geometric family, frozen


def _dense(tm):
    return np.asarray(tm.P.todense())


def _build(f, kind):
    return {MARGINAL_X: build_Px, DGS: build_Pdgs,
            RGS: lambda f: build_Prgs(f, 0.5)}[kind](f)


def _dense_reference(f, kind, s=0.5):
    # every entry of a product kernel from the two conditional laws, one
    # state at a time, with 1 - beta and 1 - delta for the stays
    states = f.support_states()
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


def test_import_leaves_scipy_sparse_unloaded():
    # the CSR view imports scipy.sparse on first access, not at import
    src = str(Path(ergochain.__file__).resolve().parents[1])
    code = "import sys, ergochain; sys.exit('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    # exp of a log-weight difference is good to eps times its magnitude
    f = fam(name, 40)
    tol = 8 * np.finfo(float).eps * max(1.0, np.abs(f.log_a).max())
    assert np.abs(_dense(_build(f, kind)) - _dense_reference(f, kind)).max() < tol


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
    tm = _build(fam("mixed-geometric", 30), kind)
    c = tv_curve(tm, tm.states[3], 60)
    P = _dense(tm)
    v = np.zeros(tm.n_states)
    v[3] = 1.0
    for n in range(61):
        assert c.values[n] == pytest.approx(
            0.5 * np.abs(v - tm.stationary).sum(), abs=1e-14)
        v = v @ P


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="reference needs extended-precision long double")
def test_tv_curve_tail_matches_extended_precision(fam):
    # geometric mixes fast, so after 400 steps TV is near 1e-12 and a
    # transport of the distribution itself loses about 3 digits there
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
    ref = np.array(ref, dtype=float)
    c = tv_curve(build_Px(f), 1, 400)
    assert np.max(np.abs(c.values - ref) / ref) < 5e-4
    ref_rate = np.exp(np.polyfit(np.arange(201, 401), np.log(ref[201:]), 1)[0])
    assert c.fit_window == (201, 400)
    assert c.fitted_rate == pytest.approx(ref_rate, abs=1e-6)


@pytest.mark.parametrize("kind", [MARGINAL_X, DGS, RGS])
def test_log_expect_matches_dense_product(fam, kind):
    # the dgs bands hold structural zeros, which must contribute nothing
    tm = _build(fam("mixed-geometric", 30), kind)
    log_f = np.linspace(-3.0, 5.0, tm.n_states)
    got = log_expect(tm, log_f)
    assert np.allclose(got, np.log(_dense(tm) @ np.exp(log_f)), rtol=0, atol=1e-13)


def test_tv_curve_argument_errors(fam):
    tm = build_Px(fam("geometric", 20))
    with pytest.raises(IndexOutOfRange):
        tv_curve(tm, 1, -1)
    with pytest.raises(StartNotInSupport):
        tv_curve(tm, 21, 10)


# -- spectral gaps -----------------------------------------------------------


def test_two_state_flat_chain_has_zero_norm():
    half = np.array([0.5])
    tm = TransitionMatrix(kind=MARGINAL_X, states=[1, 2],
                          bands={-1: half, 0: np.array([0.5, 0.5]), 1: half},
                          stationary=np.array([0.5, 0.5]), N=2)
    g = spectral_gap(tm)
    assert g.norm_estimate == pytest.approx(0.0, abs=1e-14)
    assert g.gap == pytest.approx(1.0, abs=1e-14)


def test_negative_eigenvalue_sets_the_norm():
    # a two-state chain that mostly flips has eigenvalues 1 and -0.8
    flip = np.array([0.9])
    tm = TransitionMatrix(kind=MARGINAL_X, states=[1, 2],
                          bands={-1: flip, 0: np.array([0.1, 0.1]), 1: flip},
                          stationary=np.array([0.5, 0.5]), N=2)
    assert spectral_gap(tm).norm_estimate == pytest.approx(0.8, abs=1e-14)


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
    # 1/sqrt(pi) overflows here, so the gap must come from the bands alone
    g200 = spectral_gap(build_Prgs(fam("geometric", 200), 0.5)).gap
    g1000 = spectral_gap(build_Prgs(fam("geometric", 1000), 0.5)).gap
    assert math.isfinite(g1000)
    assert g1000 == pytest.approx(g200, abs=1e-4)


def test_dgs_gap_refused(fam):
    with pytest.raises(NotSymmetricKernel):
        spectral_gap(build_Pdgs(fam("geometric", 20)))


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
    assert d["gap"] == pytest.approx(1.0 - d["rate"], abs=0)

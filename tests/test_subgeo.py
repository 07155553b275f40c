"""Conditional-variance statistics, norm bounds, and divergence flags.

The closed-form statistic is cross-checked against a direct conditional
variance computed here from the two-point conditionals, which is the
module's core oracle.
"""

import math

import numpy as np
import pytest

from ergochain import (
    IndexOutOfRange,
    build_family,
    build_Px,
    build_subgeo_report,
    conditional_variance_stat,
    divergence_statistics,
    example_names,
    example_spec,
    power_law,
    table,
)

T_LIMIT_GEO = 0.20901164656533677    # (e-2) / (2(e-1)), frozen
T20_GEO = 0.2090116489074363         # frozen direct evaluation at i = 20


def direct_T(f, i: int) -> float:
    """E Var(h_i(X)|Y) for the standardized tail indicator h_i.

    Built from the two-point conditionals and plain float sums; shares
    no code with the closed form under test.
    """
    pi_x = f.pi_x
    mu = pi_x[i - 1:].sum()
    scale = math.sqrt(mu * (1.0 - mu))
    total = 0.0
    for y in range(1, f.N + 1):
        pi_y = f.a[y - 1] + f.b[y - 1]
        if pi_y == 0.0:
            continue
        atoms = [(y, f.a[y - 1] / pi_y)]
        if y < f.N:
            atoms.append((y + 1, f.b[y - 1] / pi_y))
        h = [((1.0 if x >= i else 0.0) - mu) / scale for x, _ in atoms]
        e1 = sum(hv * w for hv, (_, w) in zip(h, atoms))
        e2 = sum(hv * hv * w for hv, (_, w) in zip(h, atoms))
        total += pi_y * (e2 - e1 * e1)
    return total


@pytest.mark.parametrize("name", example_names())
def test_closed_form_matches_direct_variance(fam, name):
    f = fam(name, 100)
    for i in list(range(2, 20)) + [50, 99, 100]:
        assert abs(conditional_variance_stat(f, i) - direct_T(f, i)) < 1e-12


def test_geometric_T_approaches_its_limit(fam):
    f = fam("geometric", 100)
    t20 = conditional_variance_stat(f, 20)
    assert t20 == pytest.approx(T20_GEO, rel=1e-12)
    assert abs(t20 - T_LIMIT_GEO) < 1e-6
    assert abs(conditional_variance_stat(f, 30) - T_LIMIT_GEO) < 1e-9


def test_mixed_T_decays_monotonically(fam):
    f = fam("mixed-geometric", 60)
    vals = [conditional_variance_stat(f, i) for i in range(10, 31)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10


def test_stat_index_bounds(fam):
    f = fam("geometric", 30)
    with pytest.raises(IndexOutOfRange):
        conditional_variance_stat(f, 1)
    with pytest.raises(IndexOutOfRange):
        conditional_variance_stat(f, 31)


def test_mu_structure(fam):
    rep = build_subgeo_report(fam("geometric", 100))
    assert np.all(rep.mu > 0.0) and np.all(rep.mu < 1.0)
    assert np.all(np.diff(rep.mu) < 0.0)
    f = fam("geometric", 100)
    assert rep.mu[0] == pytest.approx(1.0 - f.pi_x[0], rel=1e-13)


# -- norm bounds -------------------------------------------------------------


def test_norm_bounds_geometric(fam):
    f = fam("geometric", 200)
    nb = build_subgeo_report(f, scan_p=0.5).bounds
    assert nb.px_norm_lb == pytest.approx(1.0 - nb.min_T, abs=1e-15)
    assert nb.rgs_norm_lb == pytest.approx(1.0 - 0.5 * nb.min_T, abs=1e-15)
    assert 0.0 < nb.px_norm_lb < 1.0
    assert nb.rgs_norm_lb >= nb.px_norm_lb
    assert nb.min_T == pytest.approx(T_LIMIT_GEO, rel=1e-6)


def test_norm_bounds_without_scan(fam):
    nb = build_subgeo_report(fam("geometric", 50)).bounds
    assert nb.rgs_norm_lb is None


@pytest.mark.parametrize("name", example_names())
def test_rgs_bound_dominates_px_bound(fam, name):
    nb = build_subgeo_report(fam(name, 100), scan_p=0.5).bounds
    assert nb.rgs_norm_lb >= nb.px_norm_lb


def test_power_law_norm_bound_near_one():
    nb = build_subgeo_report(build_family(power_law(2.0), 2000)).bounds
    assert nb.px_norm_lb >= 0.99


# -- divergence statistics ---------------------------------------------------


def test_power_law_S1_fires_and_grows_linearly():
    st = divergence_statistics(example_spec("power-law"), 2000)
    assert st.flags["S1"]
    s1 = st.values("S1")
    # S1_i ~ ((c1+c2)/c1) * i = 2i for equal constants
    i = st.indices
    ratio = s1[i == 1600][0] / s1[i == 800][0]
    assert ratio == pytest.approx(2.0, rel=0.05)
    assert s1[i == 1000][0] == pytest.approx(2000.0, rel=0.05)


def test_mixed_fires_S2_only():
    st = divergence_statistics(example_spec("mixed-geometric"), 800)
    assert st.flags == {"S1": False, "S2": True, "S3": False}
    assert st.first_diverging() == "S2"


def test_alternating_fires_S3():
    st = divergence_statistics(example_spec("alternating"), 800)
    assert st.flags["S3"]
    # the other reciprocal ratios blow up along the same parity classes
    assert st.first_diverging() is not None


def test_geometric_fires_nothing():
    st = divergence_statistics(example_spec("geometric"), 800)
    assert not any(st.flags.values())
    assert st.first_diverging() is None


def test_S3_matches_sequence_ratio():
    spec = example_spec("mixed-geometric")
    st = divergence_statistics(spec, 100)
    i = np.asarray(st.indices)
    direct = np.exp(spec.log_b(i) - spec.log_a(i))
    assert np.allclose(st.values("S3"), direct, rtol=1e-12)


def test_S1_matches_termwise_tail_sum():
    spec = example_spec("geometric")
    st = divergence_statistics(spec, 60)
    # recompute S1_10 by brute force over a long explicit tail
    i = 10
    xs = np.arange(i, 5000)
    tail = np.exp(spec.log_a(xs)) + np.exp(spec.log_b(xs))
    direct = tail.sum() / math.exp(spec.log_a(np.array([i - 1]))[0])
    got = st.values("S1")[np.asarray(st.indices) == i][0]
    assert got == pytest.approx(direct, rel=1e-10)


def test_divergence_horizon_validation():
    with pytest.raises(IndexOutOfRange):
        divergence_statistics(example_spec("geometric"), 8)


# -- report ------------------------------------------------------------------


def test_report_shapes_and_serialization(fam):
    rep = build_subgeo_report(fam("power-law", 50), scan_p=0.5)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "i,mu_i,T_i,S1_i,S2_i,S3_i"
    assert len(lines) == 50            # header plus i = 2..50
    first = lines[1].split(",")
    assert int(first[0]) == 2
    assert all(float(cell) >= 0.0 for cell in first[1:])

    d = rep.to_json_dict()
    assert d["N"] == 50
    assert d["horizon"] == 200
    assert set(d["diverging"]) == {"S1", "S2", "S3"}
    assert d["scan_p"] == 0.5


@pytest.mark.parametrize("name", example_names())
def test_report_shares_one_log_T_with_the_bounds_and_the_statistic(fam, name):
    f = fam(name, 200)
    rep = build_subgeo_report(f, scan_p=0.5)
    assert [float(t) for t in rep.T] == [conditional_variance_stat(f, i)
                                         for i in range(2, 201)]
    assert rep.bounds.min_T == rep.T.min()
    assert 10.0 ** rep.bounds.log10_min_T == pytest.approx(rep.bounds.min_T,
                                                           rel=1e-12)


@pytest.mark.parametrize("name, log10_min_T", [("mixed-geometric", -867.8815),
                                               ("alternating", -868.4519)])
def test_log10_min_T_where_min_T_underflows(fam, name, log10_min_T):
    nb = build_subgeo_report(fam(name, 2000)).bounds
    assert nb.min_T == 0.0
    assert nb.log10_min_T == pytest.approx(log10_min_T, abs=1e-4)


def test_report_horizon_validation(fam):
    with pytest.raises(IndexOutOfRange):
        build_subgeo_report(fam("geometric", 50), horizon=40)


def _green_diagonal_and_T(f):
    """diag(E^-1) for the marginal's edge matrix E, built densely from the
    build_Px bands as in kernels.spectral_gap, and T_2..T_N."""
    bands = build_Px(f).bands
    up, down = bands[1], bands[-1]
    off = -np.sqrt(down[:-1] * up[1:])
    E = np.diag(up + down) + np.diag(off, 1) + np.diag(off, -1)
    T = [conditional_variance_stat(f, i) for i in range(2, f.N + 1)]
    return np.diag(np.linalg.inv(E)), np.array(T)


def _green_cases():
    for name in example_names():
        for N in (5, 12):
            yield build_family(example_spec(name), N)
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        spec = table(tuple(10.0 ** rng.uniform(-5, 0, k)),
                     tuple(10.0 ** rng.uniform(-5, 0, k)))
        yield build_family(spec, int(rng.integers(3, 13)))


def test_green_function_diagonal_is_one_over_T():
    # E^-1 is similar to G(j, k) = F_min(j,k) Fbar_max(j,k) / e_j, whose
    # diagonal F_j Fbar_j / e_j is 1 / T_{j+1}
    for f in _green_cases():
        G_diag, T = _green_diagonal_and_T(f)
        np.testing.assert_allclose(G_diag, 1.0 / T, rtol=1e-9)

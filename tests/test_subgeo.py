"""Conditional-variance statistics, norm bounds, and divergence flags.

The closed-form statistic is cross-checked against a direct conditional
variance computed here from the two-point conditionals, which is the
module's core oracle.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergochain import (
    BivariateFamily,
    SequenceSpec,
    build_family,
    build_Px,
    build_subgeo_report,
    classify,
    divergence_flags,
    example_names,
    example_spec,
    power_law,
    table,
    tail_limits,
)
from ergochain import subgeo
from ergochain.cli import dispatch

T_LIMIT_GEO = 0.20901164656533677    # (e-2) / (2(e-1)), frozen
T20_GEO = 0.2090116489074363         # frozen direct evaluation at i = 20


def conditional_variance_stat(f, i: int) -> float:
    """T_i = E[Var(h_i(X) | Y)] by the closed form, for 2 <= i <= N: the
    entry of the report's log T, on its own."""
    return float(np.exp(subgeo._log_mu_T(f)[1][i - 2]))


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


def test_mu_structure(fam):
    rep = build_subgeo_report(fam("geometric", 100))
    assert np.all(rep.mu > 0.0) and np.all(rep.mu < 1.0)
    assert np.all(np.diff(rep.mu) < 0.0)
    f = fam("geometric", 100)
    assert rep.mu[0] == pytest.approx(1.0 - f.pi_x[0], rel=1e-13)


# -- norm bounds -------------------------------------------------------------


def test_norm_bounds_geometric(fam):
    f = fam("geometric", 200)
    nb = build_subgeo_report(f, scan_p=0.5).to_json_dict()
    assert nb["norm_lower_bound"] == pytest.approx(1.0 - nb["min_T"], abs=1e-15)
    assert nb["rgs_norm_lower_bound"] == pytest.approx(1.0 - 0.5 * nb["min_T"],
                                                       abs=1e-15)
    assert 0.0 < nb["norm_lower_bound"] < 1.0
    assert nb["rgs_norm_lower_bound"] >= nb["norm_lower_bound"]
    assert nb["min_T"] == pytest.approx(T_LIMIT_GEO, rel=1e-6)


def test_norm_bounds_without_scan(fam):
    nb = build_subgeo_report(fam("geometric", 50)).to_json_dict()
    assert nb["rgs_norm_lower_bound"] is None


@pytest.mark.parametrize("name", example_names())
def test_rgs_bound_dominates_px_bound(fam, name):
    nb = build_subgeo_report(fam(name, 100), scan_p=0.5).to_json_dict()
    assert nb["rgs_norm_lower_bound"] >= nb["norm_lower_bound"]


def test_power_law_norm_bound_near_one():
    nb = build_subgeo_report(build_family(power_law(2.0), 2000)).to_json_dict()
    assert nb["norm_lower_bound"] >= 0.99


# -- divergence statistics ---------------------------------------------------


def S_values(spec, N):
    """i = 2..N and S1, S2 and S3 there, as the CSV prints them."""
    with np.errstate(over="ignore"):
        s = [np.exp(v) for v in subgeo._log_S(spec, N)]
    return np.arange(2, N + 1), *s


def flags(name):
    return divergence_flags(tail_limits(example_spec(name)))


def test_power_law_S1_fires_and_grows_linearly():
    assert flags("power-law")["S1"]
    i, s1, _, _ = S_values(example_spec("power-law"), 2000)
    # S1_i ~ ((c1+c2)/c1) * i = 2i for equal constants
    ratio = s1[i == 1600][0] / s1[i == 800][0]
    assert ratio == pytest.approx(2.0, rel=0.05)
    assert s1[i == 1000][0] == pytest.approx(2000.0, rel=0.05)


def test_mixed_fires_S2_only():
    assert flags("mixed-geometric") == {"S1": False, "S2": True, "S3": False}


def test_alternating_fires_S3():
    f = flags("alternating")
    assert f["S3"]
    # the other reciprocal ratios blow up along the same parity classes
    assert f["S1"] and f["S2"]


def test_geometric_fires_nothing():
    assert not any(flags("geometric").values())


def test_S3_matches_sequence_ratio():
    spec = example_spec("mixed-geometric")
    i, _, _, s3 = S_values(spec, 100)
    direct = np.exp(spec.log_b(i) - spec.log_a(i))
    assert np.allclose(s3, direct, rtol=1e-12)


def test_S1_matches_termwise_tail_sum():
    spec = example_spec("geometric")
    idx, s1, _, _ = S_values(spec, 60)
    # recompute S1_10 by brute force over a long explicit tail
    i = 10
    xs = np.arange(i, 5000)
    tail = np.exp(spec.log_a(xs)) + np.exp(spec.log_b(xs))
    direct = tail.sum() / math.exp(spec.log_a(np.array([i - 1]))[0])
    assert s1[idx == i][0] == pytest.approx(direct, rel=1e-10)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
       st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
       st.floats(0.01, 0.99999), st.integers(1, 40))
def test_table_statistics_past_the_tables_equal_their_limits(a, b, ratio, extra):
    # past both tables a_i / b_i = k and a_i / a_{i-1} = r exactly, so the
    # tail from i is (1 + 1/k) a_{i-1} r / (1 - r) and each statistic is
    # at its limit; all three are bounded, so no flag is set
    spec = table(a, b, tail_ratio=ratio)
    lim = tail_limits(spec)
    k, r = lim.m, lim.A
    first = max(len(a), len(b)) + 2        # i - 1 past both tables
    i, *values = S_values(spec, first + extra)
    past = i >= first
    limits = (r * (1.0 + 1.0 / k) / (1.0 - r), r * (1.0 + k) / (1.0 - r), 1.0 / k)
    for s, limit in zip(values, limits):
        np.testing.assert_allclose(s[past], limit, rtol=1e-12)
    assert divergence_flags(lim) == {"S1": False, "S2": False, "S3": False}


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
    assert "horizon" not in d
    assert set(d["diverging"]) == {"S1", "S2", "S3"}
    assert d["scan_p"] == 0.5


@pytest.mark.parametrize("name", example_names())
def test_report_shares_one_log_T_with_the_bounds_and_the_statistic(fam, name):
    f = fam(name, 200)
    rep = build_subgeo_report(f, scan_p=0.5)
    assert [float(t) for t in rep.T] == [conditional_variance_stat(f, i)
                                         for i in range(2, 201)]
    nb = rep.to_json_dict()
    assert nb["min_T"] == rep.T.min()
    assert 10.0 ** nb["log10_min_T"] == pytest.approx(nb["min_T"], rel=1e-12)


def _identity_residuals(spec, N):
    """|log(1/T_i) - log((1 - mu_i)(S1_i + S2_i + b_{i-1}/a_{i-1} + 1))| on
    the rows i whose untruncated tail from i loses below 1e-17 of its mass
    to the truncation (b_N and the mass beyond N). T comes from the
    family, S from the spec."""
    f = build_family(spec, N)
    log_T = build_subgeo_report(f).log_T
    log_omm = np.logaddexp.accumulate(f.log_pix[:-1])       # 1 - mu_i
    i = np.arange(1, N + 1)
    la, lb = spec.log_a(i), spec.log_b(i)
    lost = np.logaddexp(lb[-1], spec.log_mass_beyond(N))
    log_tail = np.logaddexp.accumulate(np.logaddexp(la, lb)[::-1])[::-1][1:]
    rows = lost - log_tail < math.log(1e-17)
    log_S1, log_S2, _ = subgeo._log_S(spec, N)
    terms = np.stack([log_S1, log_S2, lb[:-1] - la[:-1], np.zeros(N - 1)])
    rhs = log_omm + np.logaddexp.reduce(terms, axis=0)
    return np.abs(-log_T - rhs)[rows]


@pytest.mark.parametrize("name", ["geometric", "mixed-geometric", "alternating"])
@pytest.mark.parametrize("N", [50, 200, 2000])
def test_one_over_T_is_the_S_sum(name, N):
    # 1/T_i = (1 - mu_i)(S1_i + S2_i + b_{i-1}/a_{i-1} + 1) once the
    # truncation has lost nothing of the tail from i
    res = _identity_residuals(example_spec(name), N)
    assert res.size > 0
    assert res.max() <= 32 * N * np.finfo(float).eps


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
       st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
       st.floats(0.01, 0.99999), st.integers(10, 200))
def test_one_over_T_is_the_S_sum_on_tables(a, b, ratio, N):
    res = _identity_residuals(table(a, b, tail_ratio=ratio), N)
    assert np.all(res <= 32 * N * np.finfo(float).eps)


class _TailSumReached(Exception):
    pass


@pytest.mark.parametrize("N", [10, 2000])
def test_only_the_csv_sums_the_tail_beyond_N(monkeypatch, capsys, N):
    # the verdict, the JSON summary and subgeo --format json read the
    # flags alone; only the CSV's S columns complete a tail beyond N
    def refuse(self, horizon):
        raise _TailSumReached

    monkeypatch.setattr(SequenceSpec, "log_mass_beyond", refuse)
    spec = example_spec("power-law")
    assert classify(spec, N).verdict == "Subgeometric"
    report = build_subgeo_report(build_family(spec, N), scan_p=0.5)
    assert report.to_json_dict()["diverging"]["S1"]
    assert dispatch(["subgeo", "--example", "power-law", "--n", str(N),
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == N
    with pytest.raises(_TailSumReached):
        report.to_csv()


class _ProbabilityRead(Exception):
    pass


@pytest.mark.parametrize("N", [10, 2000])
def test_a_subgeometric_verdict_reads_no_probability(monkeypatch, capsys, N):
    # the verdict and subgeo --format json read log pi_X and log t alone;
    # the conditional probabilities are derived only where they are read
    def refuse(self):
        raise _ProbabilityRead

    for name in ("beta", "delta", "p", "q", "stay_x", "stay_y"):
        monkeypatch.setattr(BivariateFamily, name, property(refuse))
    spec = example_spec("power-law")
    assert classify(spec, N).verdict == "Subgeometric"
    assert dispatch(["subgeo", "--example", "power-law", "--n", str(N),
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == N
    with pytest.raises(_ProbabilityRead):
        build_family(spec, N).p


@pytest.mark.parametrize("name, log10_min_T", [("mixed-geometric", -867.8815),
                                               ("alternating", -868.4519)])
def test_log10_min_T_where_min_T_underflows(fam, name, log10_min_T):
    nb = build_subgeo_report(fam(name, 2000)).to_json_dict()
    assert nb["min_T"] == 0.0
    assert nb["log10_min_T"] == pytest.approx(log10_min_T, abs=1e-4)


def _green_diagonal_and_T(f):
    """diag(E^-1) for the marginal's edge matrix E, built densely from the
    build_Px up and down as in kernels.spectral_gap, and T_2..T_N."""
    tm = build_Px(f)
    up, down = tm.up, tm.down
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

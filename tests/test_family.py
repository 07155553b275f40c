"""Family construction, normalization constants, conditionals, tail limits.

Expected numeric values are precomputed with standalone scripts that sum
the series directly in extended precision; they are frozen here and never
recomputed from the code under test.
"""

import dataclasses
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergochain import (
    BivariateFamily,
    DegenerateTruncation,
    IndexOutOfRange,
    NonPositiveSequence,
    OutOfSupport,
    SequenceSpec,
    UnknownFormat,
    alternating,
    build_Pdgs,
    build_family,
    classify,
    example_names,
    example_spec,
    geometric,
    mixed_geometric,
    power_law,
    solve_constant,
    table,
    tail_limits,
    tv_curve,
)
from ergochain.spec import _zeta

# frozen normalization constants (independent series summation)
GEO_C = 0.7182818284590451          # equals e - 2
PL_C = 0.3039635509270133           # equals 3 / pi^2
MIXED_C = 1.4493404070890499

# frozen head values for the geometric family after truncation at N = 50
A1 = 0.26424111765711533
B1 = 0.36787944117144233
P1 = 0.5819767068693265
P2 = 0.12163990976543027
Q2 = 0.33065155633076704


def test_solve_constant_geometric():
    c = solve_constant("geometric")
    assert c == pytest.approx(GEO_C, rel=1e-15, abs=0)
    assert c == pytest.approx(math.e - 2.0, rel=1e-15, abs=0)


def test_solve_constant_power_law():
    c = solve_constant("power_law", d=2.0)
    assert c == pytest.approx(PL_C, rel=1e-15, abs=0)
    assert c == pytest.approx(3.0 / math.pi**2, rel=1e-15, abs=0)


# -- the pure-Python zeta behind the power-law constant ----------------------


def test_zeta_matches_scipy():
    from scipy.special import zeta

    assert _zeta(2.0) == float(zeta(2.0))     # the built-in's constant
    for d in np.linspace(1.0001, 60.0, 2001):
        ref = float(zeta(d))
        assert abs(_zeta(d) - ref) <= 4 * math.ulp(ref), d


def test_zeta_closed_forms():
    assert _zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-15, abs=0)
    assert _zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-15, abs=0)


def test_zeta_is_within_an_ulp_of_extended_precision():
    # denser near d = 1, where the pole term dominates
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for d in 1.0 + np.geomspace(1e-4, 59.0, 300):
            ref = float(mpmath.zeta(float(d)))
            assert abs(_zeta(d) - ref) <= math.ulp(ref), d


@pytest.mark.parametrize("d", [1.0001, 400.0])
def test_power_law_constant_at_extreme_d(d):
    spec = power_law(d)
    assert spec.c1 == spec.c2 == pytest.approx(0.5 / _zeta(d), rel=1e-15, abs=0)
    assert 0.0 < spec.c1 <= 0.5


def test_solve_constant_mixed_and_alternating():
    cm = solve_constant("mixed_geometric")
    ca = solve_constant("alternating")
    assert cm == pytest.approx(MIXED_C, rel=1e-15, abs=0)
    # the alternating family permutes the same two series, so the total
    # mass and hence the solved constant coincide with the mixed family
    assert ca == pytest.approx(cm, rel=1e-15, abs=0)


def test_geometric_head_values_after_truncation(fam):
    f = fam("geometric", 50)
    assert abs(f.a[0] - A1) < 1e-13
    assert abs(f.b[0] - B1) < 1e-13
    # the mass dropped by truncating at 50 is far below float resolution
    assert f.spec.log_mass_beyond(50) < math.log(1e-20)
    assert 1.0 - f.retained_mass < 1e-15


def test_discarded_tail_frozen_value():
    # independent closed form: (1 + c) e^{-51} / (1 - e^{-1})
    spec = example_spec("geometric")
    assert math.exp(spec.log_mass_beyond(50)) == pytest.approx(
        1.9287498479639174e-22, rel=1e-12)


def test_log_mass_beyond_matches_termwise_sum():
    horizon, extra = 30, 4000
    i = np.arange(horizon + 1, horizon + extra + 1)
    for name in example_names():
        spec = example_spec(name)
        direct = np.logaddexp.reduce(
            np.concatenate([spec.log_a(i), spec.log_b(i)]))
        rel = math.exp(spec.log_mass_beyond(horizon) - direct) - 1.0
        # the reference stops after 4 000 terms, which drops about 0.8 % of
        # the power-law tail; the rest are exact geometric sums
        tol = 0.02 if name == "power-law" else 1e-10
        assert abs(rel) < tol, name


def test_table_mass_beyond_inside_the_table():
    # the horizon falls inside both tables: their remaining entries plus
    # the geometric extension tab[-1] r / (1 - r) of each
    a, b, r = (1.0, 0.5, 0.3, 0.2, 0.1), (0.7, 0.4, 0.2, 0.1), 0.25
    spec = table(a, b, tail_ratio=r)
    for horizon in (1, 2, 3):
        rest = math.fsum(a[horizon:] + b[horizon:]
                         + (a[-1] * r / (1 - r), b[-1] * r / (1 - r)))
        assert spec.log_mass_beyond(horizon) == pytest.approx(
            math.log(rest), abs=1e-15)


def test_power_law_mass_beyond_matches_hurwitz_zeta():
    # sum_{i > h} (c1 + c2) i^-d = (c1 + c2) zeta(d, h + 1); d = 400 at
    # h = 4e6 puts the mass near e^-6072, far below float range, where the
    # log itself carries an ulp of 9e-13
    mpmath = pytest.importorskip("mpmath")
    cases = [(d, h) for d in (1.5, 2.0, 3.0, 6.0)
             for h in (1, 8, 16, 50, 800, 10**6)] + [(400.0, 4 * 10**6)]
    with mpmath.workdps(40):
        for d, h in cases:
            spec = power_law(d)
            ref = float(mpmath.log((mpmath.mpf(spec.c1) + spec.c2)
                                   * mpmath.zeta(d, h + 1)))
            tol = 1e-12 + 4 * math.ulp(ref)
            assert abs(spec.log_mass_beyond(h) - ref) <= tol, (d, h)


def test_conditional_probabilities_geometric(fam):
    f = fam("geometric", 50)
    assert abs(f.p[0] - P1) < 1e-13
    assert abs(f.p[1] - P2) < 1e-13
    assert abs(f.q[1] - Q2) < 1e-13
    assert f.p[1] / f.q[1] == pytest.approx(math.exp(-1.0), rel=1e-13)


@pytest.mark.parametrize("name", example_names())
def test_probability_structure(fam, name):
    f = fam(name, 100)
    assert f.q[0] == 0.0                      # no down-move from 1
    assert f.p[-1] == 0.0                     # truncation kills the up-move at N
    assert np.all(f.p >= 0) and np.all(f.q >= 0)
    # p + q can poke above 1 by float noise when beta saturates at 1
    assert np.all(f.p + f.q <= 1.0 + 1e-13)
    assert abs(f.pi_x.sum() - 1.0) < 1e-12
    assert abs(f.pi_y.sum() - 1.0) < 1e-12
    # pi_x(x) = a_x + b_{x-1}
    b_prev = np.concatenate(([0.0], f.b[:-1]))
    assert np.allclose(f.pi_x, f.a + b_prev, rtol=0, atol=1e-15)
    assert np.allclose(f.pi_y, f.a + f.b, rtol=0, atol=1e-15)


def test_a_family_stores_only_log_a_and_log_b():
    stored = ["spec", "N", "log_a", "log_b", "retained_mass"]
    assert [f.name for f in dataclasses.fields(BivariateFamily)] == stored
    f = build_family(example_spec("geometric"), 50)
    assert list(vars(f)) == stored              # nothing derived at build
    beta = f.beta
    assert f.beta is beta and "beta" in vars(f)  # derived on first read, once


def _check_pairs(f):
    """Each two-point conditional law sums to 1 within an ulp, and its
    smaller member is the one exp of its log weight over log pi."""
    eps = np.finfo(float).eps
    b_prev = np.concatenate(([-np.inf], f.log_b[:-1]))
    for move, stay, log_move, log_pi in ((f.beta, f.stay_y, f.log_b, f.log_piy),
                                         (f.delta, f.stay_x, b_prev, f.log_pix)):
        assert np.abs(move + stay - 1.0).max() <= eps
        smaller = np.where(log_move < f.log_a, move, stay)
        assert np.array_equal(smaller, np.exp(np.minimum(log_move, f.log_a) - log_pi))


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("N", [2, 200, 2000])
def test_conditional_pairs_of_the_built_ins(fam, name, N):
    _check_pairs(fam(name, N))


_ENTRIES = st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8).map(tuple)


@settings(max_examples=100, deadline=None)
@given(_ENTRIES, _ENTRIES, st.floats(0.01, 0.999), st.integers(2, 60))
# log weights near -513: two separate exps summed to 1 + 5.5e-14 here
@example((1.0, 4.568827173079522e+222), (1.0,), 0.5, 2)
def test_conditional_pairs_of_any_table(a, b, ratio, N):
    _check_pairs(build_family(table(a, b, tail_ratio=ratio), N))


def test_joint_and_support(fam):
    f = fam("geometric", 20)
    assert f.joint(3, 3) == pytest.approx(f.a[2], abs=0)
    assert f.joint(4, 3) == pytest.approx(f.b[2], abs=0)
    assert f.joint(5, 3) == 0.0
    assert f.joint(3, 5) == 0.0
    with pytest.raises(OutOfSupport):
        f.joint(0, 1)
    with pytest.raises(OutOfSupport):
        f.joint(1, 21)


def test_two_point_table():
    # one explicit level each; truncation at 2 keeps a_1, a_2, b_1 only
    f = build_family(table((0.5,), (0.5,)), 2)
    assert f.a[0] == pytest.approx(0.4, rel=1e-14)
    assert f.b[0] == pytest.approx(0.4, rel=1e-14)
    assert f.a[1] == pytest.approx(0.2, rel=1e-14)
    assert f.b[1] == 0.0


def test_table_extension_uses_tail_ratio():
    spec = table((1.0, 2.0), (3.0,), tail_ratio=0.25)
    i = np.arange(1, 6)
    a = np.exp(spec.log_a(i))
    b = np.exp(spec.log_b(i))
    assert np.allclose(a, [1.0, 2.0, 0.5, 0.125, 0.03125], rtol=1e-14)
    assert np.allclose(b, [3.0, 0.75, 0.1875, 0.046875, 0.01171875], rtol=1e-14)


@pytest.mark.parametrize("bad", [
    lambda: power_law(d=1.0),
    lambda: power_law(d=0.5),
    lambda: geometric(c=-1.0),
    lambda: geometric(c=0.0),
    lambda: mixed_geometric(c=float("nan")),
    lambda: table((), (1.0,)),
    lambda: table((1.0,), (0.0,)),
    lambda: table((1.0,), (1.0,), tail_ratio=1.0),
    lambda: SequenceSpec(kind="nope"),
])
def test_invalid_specs_raise(bad):
    with pytest.raises(NonPositiveSequence):
        bad()


def test_retained_mass_saturates_only_above_the_float_maximum():
    # only ratios matter, so a raw mass above the float maximum is valid
    f = build_family(table((1e308, 1e-300), (1e-300,)), 2)
    assert f.retained_mass == pytest.approx(1e308, rel=1e-12)
    f = build_family(table((1e308, 1e308), (1e308,)), 2)
    assert f.retained_mass == math.inf


def test_tiny_weights_renormalize_to_one():
    # log mass near -690: subtracting it whole would leave each weight
    # 690 eps off; the largest weight goes first, so pi sums to 1
    f = build_family(table((1e-300,), (1e-300,)), 2)
    eps = np.finfo(float).eps
    assert abs(math.fsum(f.pi_x) - 1.0) <= 2 * eps
    tm = build_Pdgs(f)
    tv0 = tv_curve(tm, (1, 1), 0).values[0]
    assert abs(tv0 - (1.0 - tm.stationary[tm.index_of((1, 1))])) <= 2 * eps


def test_renormalization_matches_extended_precision():
    # the log of the retained mass against a 40-digit sum of the same float
    # log weights, and pi_x's total, on the built-ins and random tables
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    specs = [example_spec(name) for name in example_names()]
    for _ in range(20):
        m = int(rng.integers(1, 6))
        a, b = (tuple(np.exp(rng.normal(size=m))) for _ in range(2))
        specs.append(table(a, b, tail_ratio=float(0.3 + 0.5 * rng.random())))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for spec in specs:
            for N in (25, 200, 2000):
                idx = np.arange(1, N + 1)
                logs = np.concatenate([spec.log_a(idx), spec.log_b(idx)[:-1]])
                ref = float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(x)))
                                                   for x in logs)))
                f = build_family(spec, N)
                assert abs(math.log(f.retained_mass) - ref) <= 2 * eps * max(1.0, abs(ref))
                assert abs(math.fsum(f.pi_x) - 1.0) <= 4 * eps


def test_degenerate_truncation():
    with pytest.raises(DegenerateTruncation):
        build_family(example_spec("geometric"), 1)


def test_sequence_indices_start_at_one():
    spec = example_spec("geometric")
    with pytest.raises(IndexOutOfRange):
        spec.log_a(np.array([0, 1]))


def test_birth_death_probs_bounds(fam):
    # the marginal chain cannot leave 1..N: no down-move from 1, no up-move from N
    f = fam("geometric", 30)
    assert f.q[0] == 0.0 and 0.0 < f.p[0] < 1.0
    assert f.p[-1] == 0.0 and 0.0 < f.q[-1] < 1.0


def test_spec_json_round_trip():
    specs = [example_spec(n) for n in example_names()]
    specs.append(table((1.0, 2.0), (3.0,), tail_ratio=0.25))
    specs.append(SequenceSpec(kind="geometric", c=0.9))
    for spec in specs:
        back = SequenceSpec.from_json(spec.to_json())
        assert back == spec
        # canonical emit is idempotent
        assert back.to_json() == spec.to_json()


def test_spec_json_rejects_garbage():
    with pytest.raises(UnknownFormat):
        SequenceSpec.from_json("not json at all")
    with pytest.raises(UnknownFormat):
        SequenceSpec.from_json(json.dumps({"no_kind": True}))


# -- exact tail limits -------------------------------------------------------


def test_tail_limits_geometric_numeric():
    # a_i / b_i = c and every ratio is constant: the row is exact
    lim = tail_limits(SequenceSpec(kind="geometric", c=GEO_C))
    assert lim.A == math.exp(-1.0) and lim.r_hat == math.exp(-1.0)
    assert lim.m == lim.M == pytest.approx(GEO_C, rel=1e-15)
    assert lim.a_over_bprev == pytest.approx(GEO_C * math.exp(-1.0), rel=1e-15)
    assert lim.b_over_a == pytest.approx(1.0 / GEO_C, rel=1e-15)
    assert lim.q_hat == pytest.approx(
        GEO_C / ((1.0 + GEO_C * math.exp(-1.0)) * (1.0 + GEO_C)), rel=1e-15)
    assert lim.exist


def test_tail_limits_power_law_numeric():
    lim = tail_limits(SequenceSpec(kind="power_law", d=2.0, c1=PL_C, c2=3 * PL_C))
    assert lim.A == 1.0 and lim.r_hat == 1.0
    assert lim.m == lim.M == lim.a_over_bprev == pytest.approx(1 / 3, rel=1e-15)
    assert lim.b_over_a == pytest.approx(3.0, rel=1e-15)
    assert lim.q_hat == pytest.approx(3 / 16, rel=1e-15)    # c1 c2 / (c1 + c2)^2


def test_tail_limits_alternating_diverges():
    # the parities swap the two rates, so a_i / a_{i-1} and a_i / b_i
    # oscillate between 0 and inf and neither limit exists
    lim = tail_limits(SequenceSpec(kind="alternating", c=MIXED_C))
    assert (lim.A, lim.m, lim.M, lim.b_over_a) == (math.inf, 0.0, math.inf, math.inf)
    assert lim.a_over_bprev == math.exp(-1.0) and lim.r_hat == math.exp(-2.0)
    assert lim.q_hat == 0.0 and not lim.exist


def test_tail_limits_declared_override():
    # no limit can be declared over a spec's own: the JSON field is refused
    doc = example_spec("geometric").to_json_dict()
    doc["declared_limits"] = {"A": 1.0, "lim_ab": 1.0}
    with pytest.raises(UnknownFormat, match="^declared_limits is no longer read"):
        SequenceSpec.from_json_dict(doc)
    lim = tail_limits(example_spec("mixed-geometric"))
    assert lim.A == math.exp(-1.0) and lim.exist
    assert math.isinf(lim.m) and math.isinf(lim.a_over_bprev)
    assert lim.b_over_a == 0.0 and lim.q_hat == 0.0


def test_tail_limits_argument_validation():
    # the row depends on the spec alone, so classify takes any N >= 2
    spec = example_spec("geometric")
    assert tail_limits(spec) == tail_limits(SequenceSpec.from_json(spec.to_json()))
    assert classify(spec, N=2).quantities == classify(spec, N=300).quantities
    with pytest.raises(DegenerateTruncation):
        classify(spec, N=1)


@pytest.mark.parametrize("doc, key", [
    ({"kind": "table", "params": {"a": [1.0], "b": [1.0], "tail_raito": 0.99}},
     "tail_raito"),
    ({"kind": "geometric", "params": {"c": 1.0, "d": 2.0}}, "d"),
    ({"kind": "power_law", "params": {"d": 2.0, "c": 1.0}}, "c"),
    ({"kind": "geometric", "params": {"c": 1.0}, "scope": "tail"}, "scope"),
    ({"kind": "table", "params": {}, "tail_ratio": 0.5}, "tail_ratio"),
])
def test_spec_refuses_keys_its_kind_does_not_read(doc, key):
    # a key that is not read would leave its field at the default, and the
    # answer would belong to another chain
    with pytest.raises(UnknownFormat, match=f"key {key!r} is not read"):
        SequenceSpec.from_json_dict(doc)


def test_declared_limits_must_be_nonnegative():
    # a declared limit is refused whatever it holds, in range or not
    for limits in ({"A": 0.5}, {"A": -5.0}, {"lim_b_over_a": "nan"}, None):
        doc = {"kind": "table", "params": {"a": [1.0], "b": [1.0]},
               "declared_limits": limits}
        with pytest.raises(UnknownFormat):
            SequenceSpec.from_json(json.dumps(doc))


def test_table_limits_saturate_instead_of_overflowing():
    # a / b = 1e616 is finite, so it reads as the largest float, not inf,
    # and q = k / ((k r + 1)(k + 1)) is formed without overflow
    lim = tail_limits(table((1e308,), (1e-308,), tail_ratio=0.5))
    assert lim.m == lim.M == lim.a_over_bprev == sys.float_info.max
    assert 0.0 <= lim.b_over_a < 1e-300 and 0.0 <= lim.q_hat < 1e-300
    lim = tail_limits(table((1e-308,), (1e308,), tail_ratio=0.5))
    assert lim.m == 0.0 and lim.b_over_a == sys.float_info.max
    assert lim.exist and lim.A == 0.5


def test_alternating_declares_nothing():
    assert tail_limits(alternating()).exist is False
    assert "declared_limits" not in alternating().to_json_dict()


# -- the rows against a 40-digit evaluation of the ratios ---------------------

_C = st.floats(1e-3, 1e3)
_TAB = st.lists(st.floats(1e-100, 1e100), min_size=1, max_size=5).map(tuple)
_SPECS = st.one_of(
    st.builds(lambda d, c1, c2: SequenceSpec("power_law", d=d, c1=c1, c2=c2),
              st.floats(1.01, 10.0), _C, _C),
    *(st.builds(lambda c, k=kind: SequenceSpec(k, c=c), _C)
      for kind in ("geometric", "mixed_geometric", "alternating")),
    st.builds(table, _TAB, _TAB, tail_ratio=st.floats(0.01, 0.99999)))
# the row fields that are limsups; m and q_hat are liminfs
_SUPS = ("A", "M", "a_over_bprev", "b_over_a", "r_hat")


def _mp_seq(spec, i):
    """(a_i, b_i) as 40-digit mpmath numbers, from the spec's own floats."""
    e = mpmath.exp(-i)
    if spec.kind == "power_law":
        return spec.c1 * mpmath.mpf(i) ** -spec.d, spec.c2 * mpmath.mpf(i) ** -spec.d
    if spec.kind == "geometric":
        return spec.c * e, e
    if spec.kind == "mixed_geometric":
        return spec.c * e, e * e
    if spec.kind == "alternating":
        slow, fast = spec.c * e, e * e
        return (slow, fast) if i % 2 == 0 else (fast, slow)
    seqs = []
    for tab in (spec.a_table, spec.b_table):
        n = len(tab)
        seqs.append(mpmath.mpf(tab[i - 1]) if i <= n
                    else tab[-1] * mpmath.mpf(spec.tail_ratio) ** (i - n))
    return tuple(seqs)


def _mp_ratios(spec, i):
    """Every row quantity's ratio at index i."""
    (a0, b0), (a1, b1) = _mp_seq(spec, i - 1), _mp_seq(spec, i)
    t0, t1 = a0 * b0 / (a0 + b0), a1 * b1 / (a1 + b1)
    return {"A": a1 / a0, "m": a1 / b1, "M": a1 / b1, "a_over_bprev": a1 / b0,
            "b_over_a": b1 / a1, "r_hat": t1 / t0,
            "q_hat": a0 * b0 / ((a1 + b0) * (a0 + b0))}


@settings(max_examples=150, deadline=None, database=None)
@given(_SPECS, st.integers(10 ** 6, 10 ** 6 + 50))
def test_tail_limits_match_a_40_digit_evaluation(spec, i):
    # two consecutive indices near 10^6 cover both parities of alternating;
    # a ratio whose limit is 0 or inf is beyond float range there
    lim = tail_limits(spec)
    tol = 10 * spec.d / i if spec.kind == "power_law" else 1e-12
    with mpmath.workdps(40):
        pair = [_mp_ratios(spec, i), _mp_ratios(spec, i + 1)]
        for k in _SUPS + ("m", "q_hat"):
            ref = (max if k in _SUPS else min)(r[k] for r in pair)
            got = getattr(lim, k)
            if got == math.inf:
                assert ref > sys.float_info.max, k
            elif got == sys.float_info.max:
                assert ref >= got * (1 - tol), k
            else:
                assert abs(got - ref) <= tol * ref + sys.float_info.min, k

"""Family construction, normalization constants, conditionals, tail limits.

Expected numeric values are precomputed with standalone scripts that sum
the series directly in extended precision; they are frozen here and never
recomputed from the code under test.
"""

import json
import math

import numpy as np
import pytest

from ergochain import (
    DegenerateTruncation,
    IndexOutOfRange,
    NonPositiveSequence,
    OutOfSupport,
    SequenceSpec,
    UnknownFormat,
    alternating,
    birth_death_probs,
    build_family,
    example_names,
    example_spec,
    geometric,
    mixed_geometric,
    power_law,
    solve_constant,
    table,
    tail_limits,
)

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
        # the power-law form is a midpoint integral estimate, the rest
        # are exact geometric sums
        tol = 0.02 if name == "power-law" else 1e-10
        assert abs(rel) < tol, name


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

    states = f.support_states()
    assert len(states) == 2 * f.N - 1
    assert states[:3] == [(1, 1), (2, 1), (2, 2)]
    probs = f.support_probs()
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs[1] == pytest.approx(f.joint(2, 1), abs=0)


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


def test_degenerate_truncation():
    with pytest.raises(DegenerateTruncation):
        build_family(example_spec("geometric"), 1)


def test_sequence_indices_start_at_one():
    spec = example_spec("geometric")
    with pytest.raises(IndexOutOfRange):
        spec.log_a(np.array([0, 1]))


def test_birth_death_probs_bounds(fam):
    f = fam("geometric", 30)
    assert birth_death_probs(f, 1) == (float(f.p[0]), 0.0)
    with pytest.raises(IndexOutOfRange):
        birth_death_probs(f, 0)
    with pytest.raises(IndexOutOfRange):
        birth_death_probs(f, 31)


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


# -- tail ratio estimation --------------------------------------------------


def test_tail_limits_geometric_numeric():
    # plain spec, no declared limits: estimates must converge on their own
    spec = SequenceSpec(kind="geometric", c=GEO_C)
    est = tail_limits(spec, window=50, horizon=800)
    assert est.A == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert est.m == pytest.approx(GEO_C, rel=1e-12)
    assert est.M == pytest.approx(GEO_C, rel=1e-12)
    assert est.b_over_a == pytest.approx(1.0 / GEO_C, rel=1e-12)
    assert all(est.converged.values())
    assert not any(est.declared.values())


def test_tail_limits_power_law_numeric():
    spec = SequenceSpec(kind="power_law", d=2.0, c1=PL_C, c2=PL_C)
    est = tail_limits(spec, window=50, horizon=10_000)
    assert abs(est.A - 1.0) < 1e-3    # (1 - 1/i)^2 at i = 10^4
    assert est.m == pytest.approx(1.0, rel=1e-12)
    assert est.M == pytest.approx(1.0, rel=1e-12)


def test_tail_limits_alternating_diverges():
    spec = SequenceSpec(kind="alternating", c=MIXED_C)
    est = tail_limits(spec, window=50, horizon=800)
    # b_i/a_i explodes along odd i; the window max keeps growing
    assert not est.converged["b_over_a"]
    assert est.b_over_a > 1e100 or math.isinf(est.b_over_a)


def test_tail_limits_declared_override():
    est = tail_limits(example_spec("geometric"), window=50, horizon=800)
    assert est.A == math.exp(-1.0)
    assert est.declared["A"] and est.converged["A"]
    assert est.m == est.M
    est2 = tail_limits(example_spec("mixed-geometric"), window=50, horizon=800)
    assert math.isinf(est2.a_over_bprev)
    assert est2.b_over_a == 0.0


def test_tail_limits_argument_validation():
    spec = example_spec("geometric")
    with pytest.raises(IndexOutOfRange):
        tail_limits(spec, window=5, horizon=800)
    with pytest.raises(IndexOutOfRange):
        tail_limits(spec, window=50, horizon=60)


def test_alternating_declares_nothing():
    spec = alternating()
    assert spec.declared_limits is None

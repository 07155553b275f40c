"""Property tests: random table specs survive a JSON round trip, and the
verdict and certificate JSON written for them is strict (no NaN or
Infinity) and reads back as the dict written. The spec records keep the
behaviour of frozen records: field order, repr, equality, hash, pickling,
read-only fields and every validation message."""

import dataclasses
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergochain import (
    COutOfRange,
    NonPositiveSequence,
    NoCertificate,
    SequenceSpec,
    TailLimits,
    UnknownFormat,
    build_family,
    classify,
    lift_to_rgs,
    table,
    tail_limits,
    verify_drift,
)
from ergochain.drift import certify

_ENTRIES = st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8).map(tuple)
TABLES = st.builds(table, _ENTRIES, _ENTRIES, tail_ratio=st.floats(0.01, 0.999))


@settings(max_examples=200, deadline=None, database=None)
@given(TABLES)
def test_spec_json_round_trip_is_a_fixed_point(spec):
    text = spec.to_json()
    assert SequenceSpec.from_json(text).to_json() == text


SPEC_FIELDS = ("kind", "d", "c1", "c2", "c", "a_table", "b_table", "tail_ratio")
LIMIT_FIELDS = ("A", "m", "M", "a_over_bprev", "b_over_a", "r_hat", "q_hat", "exist")


def _check_record(rec, cls, fields):
    values = tuple(getattr(rec, f) for f in fields)
    assert type(rec) is cls and tuple(rec) == values
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    # equal when built again, positionally or by name, and hashed as the
    # tuple of its fields
    assert cls(*values) == rec == cls(**dict(zip(fields, values)))
    assert hash(rec) == hash(values) == hash(cls(*values))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, proto))
        assert type(back) is cls and back == rec and repr(back) == repr(rec)
    for f in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])


@settings(max_examples=200, deadline=None, database=None)
@given(TABLES)
def test_spec_records_keep_their_behaviour(spec):
    _check_record(spec, SequenceSpec, SPEC_FIELDS)
    _check_record(tail_limits(spec), TailLimits, LIMIT_FIELDS)
    back = SequenceSpec.from_json(spec.to_json())
    assert back == spec and repr(back) == repr(spec)
    # the tables and tail ratio are normalized to floats on every path
    alt = spec._replace(a_table=[int(v) + 1 for v in spec.a_table], tail_ratio=None)
    assert alt.tail_ratio == 0.5 and all(type(v) is float for v in alt.a_table)
    assert alt == table(alt.a_table, spec.b_table)


_BAD_ENTRIES = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, None])


@settings(max_examples=100, deadline=None, database=None)
@given(TABLES, st.sampled_from(["a", "b"]), st.data())
def test_spec_records_keep_their_validation_messages(spec, which, data):
    tab = list(spec.a_table if which == "a" else spec.b_table)
    tab[data.draw(st.integers(0, len(tab) - 1))] = data.draw(_BAD_ENTRIES)
    field = f"{which}_table"
    with pytest.raises(NonPositiveSequence,
                       match=rf"^table {which} entries must be positive and finite$"):
        spec._replace(**{field: tab})
    with pytest.raises(NonPositiveSequence,
                       match=rf"^table requires a nonempty {which} table$"):
        spec._replace(**{field: ()})
    bad_r = data.draw(st.sampled_from([0.0, 1.0, -0.5, 2.0, math.inf, math.nan]))
    with pytest.raises(NonPositiveSequence, match=r"^tail_ratio must lie in \(0, 1\)$"):
        table(spec.a_table, spec.b_table, tail_ratio=bad_r)
    # declared limits are refused whatever they hold, valid or not
    doc = spec.to_json_dict()
    doc["declared_limits"] = data.draw(st.sampled_from(
        [None, {}, {"A": 0.5}, {"A": -1.0, "lim_ab": "nan"}, [1.0], "inf"]))
    with pytest.raises(UnknownFormat) as err:
        SequenceSpec.from_json(json.dumps(doc))
    assert str(err.value) == ("declared_limits is no longer read: every kind's "
                              "tail limits are exact (spec.tail_limits)")


@pytest.mark.parametrize("kwargs,message", [
    ({"kind": "nope"}, "unknown sequence kind 'nope'"),
    ({"kind": []}, "unknown sequence kind []"),
    ({"kind": "power_law", "c1": 1.0, "c2": 1.0}, "power_law requires a finite d > 1"),
    ({"kind": "power_law", "d": 1.0, "c1": 1.0, "c2": 1.0},
     "power_law requires a finite d > 1"),
    ({"kind": "power_law", "d": math.inf, "c1": 1.0, "c2": 1.0},
     "power_law requires a finite d > 1"),
    ({"kind": "power_law", "d": 2.0, "c1": 1.0}, "power_law requires c1 > 0 and c2 > 0"),
    ({"kind": "power_law", "d": 2.0, "c1": 0.0, "c2": 1.0},
     "power_law requires c1 > 0 and c2 > 0"),
    ({"kind": "geometric"}, "geometric requires c > 0"),
    ({"kind": "mixed_geometric", "c": math.nan}, "mixed_geometric requires c > 0"),
    ({"kind": "alternating", "c": -1.0}, "alternating requires c > 0"),
    ({"kind": "table", "b_table": (1.0,)}, "table requires a nonempty a table"),
    ({"kind": "table", "a_table": (1.0,), "b_table": (1.0, 0.0)},
     "table b entries must be positive and finite"),
    ({"kind": "table", "a_table": (1.0,), "b_table": (1.0,), "tail_ratio": 1.0},
     "tail_ratio must lie in (0, 1)"),
])
def test_every_kind_keeps_its_validation_message(kwargs, message):
    with pytest.raises(NonPositiveSequence) as err:
        SequenceSpec(**kwargs)
    assert str(err.value) == message


def test_records_are_tuples():
    # a deliberate API: the records are named tuples, so they have a length,
    # iterate over their fields and equal the plain tuple of those fields
    spec = table((1.0,), (2.0,), tail_ratio=0.25)
    assert len(spec) == 8 and spec == ("table", *[None] * 4, (1.0,), (2.0,), 0.25)
    # k = a/b = 0.5, q = k / ((k r + 1)(k + 1))
    assert list(tail_limits(spec)) == pytest.approx(
        [0.25, 0.5, 0.5, 0.125, 2.0, 0.25, 0.5 / (1.125 * 1.5), True], rel=1e-15)
    assert SequenceSpec._fields == SPEC_FIELDS and TailLimits._fields == LIMIT_FIELDS


@settings(max_examples=25, deadline=None, database=None)
@given(TABLES, st.integers(10, 60), st.sampled_from([None, 0.5]))
def test_verdict_json_is_strict_and_round_trips(spec, N, scan_p):
    d = classify(spec, N=N, scan_p=scan_p).to_json_dict()
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def _lift(cert):
    """lift_to_rgs at scan_p 0.3, or the message of the refusal."""
    try:
        return lift_to_rgs(cert, 0.3)
    except COutOfRange as exc:
        return str(exc)


@settings(max_examples=25, deadline=None, database=None)
@given(TABLES, st.integers(10, 60), st.sampled_from([None, 0.1, 0.5, 0.9]))
def test_certificate_json_is_strict_and_round_trips(spec, N, scan_p):
    fam = build_family(spec, N)
    c = certify(fam.spec, fam.N, scan_p)
    if isinstance(c, NoCertificate):
        return
    d = c.to_json_dict()
    assert json.loads(json.dumps(d, allow_nan=False)) == d
    assert (d["z"], d["rho"], d["x0"]) == (c.z, c.rho, c.x0)
    assert ("rgs" in d) == (c.scan_p is not None)
    assert verify_drift(c, fam).holds
    if c.scan_p is not None:
        unlifted = dataclasses.replace(c, scan_p=None, tau=None)
        assert _lift(c) == _lift(unlifted)

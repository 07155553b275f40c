"""Property tests: random table specs, their verdicts and their drift
certificates survive a JSON round trip, and verdict and certificate JSON
is strict (no NaN or Infinity)."""

import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ergochain import (
    COutOfRange,
    ErgodicityVerdict,
    NoCertificate,
    SequenceSpec,
    TailLimits,
    build_family,
    classify,
    lift_to_rgs,
    table,
    verify_drift,
)
from ergochain.drift import certificate_from_json_dict, certify

_LIMIT = st.none() | st.just(math.inf) | st.floats(min_value=0.0, allow_infinity=False)
_ENTRIES = st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8).map(tuple)
TABLES = st.builds(
    table, _ENTRIES, _ENTRIES, tail_ratio=st.floats(0.01, 0.999),
    declared_limits=st.none() | st.builds(
        TailLimits, A=_LIMIT, lim_ab=_LIMIT, lim_a_over_bprev=_LIMIT,
        lim_b_over_a=_LIMIT))


@settings(max_examples=200, deadline=None, database=None)
@given(TABLES)
def test_spec_json_round_trip_is_a_fixed_point(spec):
    text = spec.to_json()
    assert SequenceSpec.from_json(text).to_json() == text


@settings(max_examples=25, deadline=None, database=None)
@given(TABLES, st.integers(10, 60), st.sampled_from([None, 0.5]))
def test_verdict_json_is_strict_and_round_trips(spec, N, scan_p):
    d = classify(spec, N=N, scan_p=scan_p).to_json_dict()
    json.dumps(d, allow_nan=False)
    assert ErgodicityVerdict.from_json_dict(d).to_json_dict() == d


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
    c = certify(fam, scan_p)
    if isinstance(c, NoCertificate):
        return
    text = json.dumps(c.to_json_dict(), allow_nan=False)
    assert certificate_from_json_dict(json.loads(text)) == c
    assert verify_drift(c, fam).holds
    if c.scan_p is not None:
        unlifted = dataclasses.replace(c, scan_p=None, c=None, gamma=None)
        assert _lift(c) == _lift(unlifted)

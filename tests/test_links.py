"""The three ways of answering check each other through proven links.

Each link is an inequality between two independently computed numbers,
and each tolerance is the stated rounding of its two sides:

- the spectral gap g of Px is at most min_T, since 1 - min_T bounds the
  norm of Px on mean-zero functions from below (subgeo). g is resolved to
  eps times E's Gershgorin bound, at most 4 eps (kernels.spectral_gap),
  and log T to 32 N eps, the resolution test_subgeo.py gives it;
- the l2 bound TV(n) <= 1/2 sqrt((1 - pi(s)) / pi(s)) (1 - g)^n (Levin,
  Peres & Wilmer 2017, 12.2) holds on Px from both ends and on Prgs from
  (1, 1). At n = 0 it is 1 - pi(s) against a bound larger by
  1 / (2 sqrt(pi(s)(1 - pi(s)))), which is tight when pi(s) = 1/2, so the
  bound carries its rounding, 8 eps plus n times g's, and TV that of n
  transport steps over the states, 2 (n + 1) n_states eps;
- drift.certify issues a certificate exactly where no divergence flag
  fires, and refuses only where 1 - rho underflows float64 or z* rounds
  to 1.0 (r_hat within five ulps of 1);
- a certificate is the untruncated tail's: certify gives the same one at
  every N but for the N it records, with x0 <= K (spec._tail_start), and
  verify_drift accepts it on every truncation;
- a lifted certificate's excess at each staircase pair, formed from the
  random scan's one-step expectation of W = V + c G at 50 digits, is at
  most the marginal excess of the pair's x, to 1e-45 of E W + W: so
  verify_drift checks a lifted certificate on its marginal rows;
- Fact 1: the random-scan gap at scan probability s is 2 s t g /
  (1 + sqrt(1 - 4 s t g)), t = 1 - s, a function of the gap g of Px
  alone. Each gap carries its 4 eps, and g's moves the formula by
  s t / sqrt(1 - 4 s t g) times as much; the formula's own rounding is
  4 eps of its value;
- the Hardy constant B of Px brackets its gap, 1/(4B) <= g <= 2/B (Miclo
  1999; Chen 2000). B = max(B+, B-) is split at the median level m, with
  B+ = max over i > m of (sum_{j=m}^{i-1} 1/e_j) pi([i, N]) and B- = max
  over i < m of (sum_{j=i}^{m-1} 1/e_j) pi([1, i]), e_j = pi_j p_j the
  edge conductances. It is summed in log space from log pi_X and log e,
  since a linear-space B overflows at geometric N = 2 000, and its
  rounding is taken as 4 N eps in log B (0.64 N eps against 50 digits on
  44 specs at N <= 50).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt

from ergochain import (
    DriftCertificate,
    NoCertificate,
    alternating,
    build_family,
    build_Prgs,
    build_Px,
    build_subgeo_report,
    certify,
    divergence_flags,
    example_names,
    example_spec,
    geometric,
    mixed_geometric,
    power_law,
    spectral_gap,
    table,
    tail_limits,
    tv_curve,
    verify_drift,
)
from ergochain.spec import _tail_start

EPS = np.finfo(float).eps
# the TV curves run until the bound falls below this, or for _STEPS steps
_BOUND_FLOOR = 1e-9
_STEPS = 400

# random tables drawn like perfbench's harness.table_spec: one to five
# lognormal entries in each sequence and a tail ratio in [0.3, 0.8]
_ENTRY = st.floats(-3.0, 3.0).map(lambda v: float(f"{math.exp(v):.6g}"))
TABLES = st.builds(table, st.lists(_ENTRY, min_size=1, max_size=5).map(tuple),
                   st.lists(_ENTRY, min_size=1, max_size=5).map(tuple),
                   tail_ratio=st.floats(0.3, 0.8).map(lambda r: round(r, 6)))
SIZES = st.integers(10, 2000)


@settings(max_examples=25, deadline=None, database=None)
@given(TABLES, SIZES)
def test_gap_is_at_most_min_T(spec, N):
    f = build_family(spec, N)
    g = spectral_gap(build_Px(f)).gap
    log_min_T = float(np.min(build_subgeo_report(f).log_T))
    assert g - 4 * EPS <= math.exp(log_min_T + 32 * N * EPS)


@settings(max_examples=25, deadline=None, database=None)
@given(TABLES, SIZES, st.floats(0.05, 0.95))
def test_rgs_gap_is_a_function_of_the_marginal_gap(spec, N, scan_p):
    f = build_family(spec, N)
    stg = scan_p * (1 - scan_p) * spectral_gap(build_Px(f)).gap
    root = math.sqrt(1 - 4 * stg)
    expected = 2 * stg / (1 + root)
    tol = 4 * EPS * (1 + scan_p * (1 - scan_p) / root) + 4 * EPS * expected
    assert abs(spectral_gap(build_Prgs(f, scan_p)).gap - expected) <= tol


def _log_hardy(f):
    """log B of Px, from the median level split."""
    log_pi, log_e = f.log_pix, f.log_t[:-1]
    # 0-based: m is the first level with pi([1, m]) >= 1/2, and edge j joins
    # levels j and j + 1
    log_prefix = np.logaddexp.accumulate(log_pi)
    log_suffix = np.logaddexp.accumulate(log_pi[::-1])[::-1]
    m = int(np.searchsorted(log_prefix, math.log(0.5)))
    plus = np.logaddexp.accumulate(-log_e[m:]) + log_suffix[m + 1:]
    minus = np.logaddexp.accumulate(-log_e[:m][::-1])[::-1] + log_prefix[:m]
    return max(np.max(plus, initial=-np.inf), np.max(minus, initial=-np.inf))


def _hardy_brackets_the_gap(f):
    g = spectral_gap(build_Px(f)).gap
    log_B, slack = _log_hardy(f), 4 * f.N * EPS
    assert math.exp(-math.log(4) - log_B - slack) <= g + 4 * EPS
    assert g - 4 * EPS <= math.exp(math.log(2) - log_B + slack)


@settings(max_examples=25, deadline=None, database=None)
@given(TABLES, SIZES)
def test_hardy_constant_brackets_the_gap(spec, N):
    _hardy_brackets_the_gap(build_family(spec, N))


@pytest.mark.parametrize("N", [10, 200, 2000])
@pytest.mark.parametrize("name", example_names())
def test_hardy_constant_brackets_the_gap_of_the_built_ins(name, N):
    _hardy_brackets_the_gap(build_family(example_spec(name), N))


def _l2_bound_holds(tm, start, log_pi_start):
    """TV(n) from start against the l2 bound over n = 0.._STEPS, or None
    when pi(start) underflows."""
    if log_pi_start < math.log(np.finfo(float).tiny):
        return None
    g = spectral_gap(tm).gap
    n = np.arange(_STEPS + 1)
    with np.errstate(divide="ignore"):
        log_bound = (math.log(0.5) + 0.5 * (math.log1p(-math.exp(log_pi_start))
                                            - log_pi_start) + n * math.log1p(-g))
    steps = int(np.sum(log_bound >= math.log(_BOUND_FLOOR)))
    tv = tv_curve(tm, start, max(steps - 1, 0)).values
    bound = np.exp(log_bound[:tv.size]) * (1 + 8 * EPS + n[:tv.size] * 4 * EPS / (1 - g))
    slack = 2 * (n[:tv.size] + 1) * tm.n_states * EPS
    return bool(np.all(tv <= bound + slack))


@settings(max_examples=25, deadline=None, database=None)
@given(TABLES, SIZES, st.floats(0.05, 0.95))
def test_tv_is_below_the_l2_bound(spec, N, scan_p):
    f = build_family(spec, N)
    px = build_Px(f)
    for start in (1, N):
        assert _l2_bound_holds(px, start, float(f.log_pix[start - 1])) is not False
    rgs = build_Prgs(f, scan_p)
    assert _l2_bound_holds(rgs, (1, 1), float(f.log_a[0])) is not False


_LOG_ENTRY = st.floats(-700.0, 700.0)
_TAIL_RATIO = (st.floats(1e-300, 1e-3) | st.floats(1e-3, 0.999)
               | st.floats(0.999, 1.0 - 1e-15))


@st.composite
def _specs(draw):
    """Specs of all five kinds: tables with entries over e^+-700 and tail
    ratios near 0 and near 1, and the harness's tables."""
    kind = draw(st.sampled_from(["power_law", "geometric", "mixed_geometric",
                                 "alternating", "table", "harness_table"]))
    pos = st.floats(1e-3, 1e3)
    if kind == "power_law":
        return power_law(draw(st.floats(1.5, 6.0)), draw(pos), draw(pos))
    if kind == "harness_table":
        return draw(TABLES)
    if kind != "table":
        return {"geometric": geometric, "mixed_geometric": mixed_geometric,
                "alternating": alternating}[kind](draw(pos))
    entries = st.lists(_LOG_ENTRY, min_size=1, max_size=6).map(
        lambda logs: tuple(math.exp(x) for x in logs))
    return table(draw(entries), draw(entries), tail_ratio=draw(_TAIL_RATIO))


@settings(max_examples=80, deadline=None, database=None)
@given(_specs(), st.integers(2, 200), st.sampled_from([None, 0.5, 1e-7]))
def test_certificate_is_issued_exactly_where_no_flag_fires(spec, N, scan_p):
    f = build_family(spec, N)
    flags = divergence_flags(tail_limits(spec))
    cert = certify(f.spec, f.N, scan_p)
    if any(flags.values()):
        assert isinstance(cert, NoCertificate)
        assert all(name in cert.reason for name, fired in flags.items() if fired)
    elif isinstance(cert, NoCertificate) and "underflows float64" in cert.reason:
        with mp.workdps(50):
            r, q = mpf(cert.r_hat), mpf(cert.q_hat)
            assert q / 2 * (1 - sqrt((r + 1) / 2)) ** 2 < np.finfo(float).tiny
    else:
        # tail ratios within 1e-11 of 1 too: the exact check decides the
        # tail rows that the float bound leaves open
        assert isinstance(cert, DriftCertificate)
        assert verify_drift(cert, f).holds


@settings(max_examples=40, deadline=None, database=None)
@given(TABLES | st.floats(1e-3, 1e3).map(geometric), st.integers(2, 2000),
       st.integers(2, 2000), st.sampled_from([None, 0.5]))
def test_certificate_does_not_depend_on_N(spec, N, N2, scan_p):
    cert = certify(spec, N, scan_p)
    assert isinstance(cert, DriftCertificate) and cert.N == N
    assert cert.x0 <= _tail_start(spec)
    assert certify(spec, N2, scan_p) == dataclasses.replace(cert, N=N2)
    for n in (N, N2):
        assert verify_drift(cert, build_family(spec, n)).holds


def _mp_weights(spec, N):
    """a_i and b_i for i = 0..N of the table spec's truncation at N, at 50
    digits from its entries taken as exact: its tail ratio extends them,
    a_0 = b_0 = 0 and b_N = 0."""
    def w(tab, i):
        n = len(tab)
        return mpf(tab[i - 1]) if i <= n else mpf(tab[-1]) * mpf(spec.tail_ratio) ** (i - n)

    a = [mpf(0)] + [w(spec.a_table, i) for i in range(1, N + 1)]
    b = [mpf(0)] + [w(spec.b_table, i) for i in range(1, N)] + [mpf(0)]
    return a, b


def _mp_excess(spec, z, x, N):
    """eps(x) + 0 of the truncation at N, 2 <= x <= N, at 50 digits
    (_mp_weights)."""
    a, b = _mp_weights(spec, N)
    a1, b1, a0, b0 = a[x], b[x], a[x - 1], b[x - 1]
    pix, z = a1 + b0, mpf(z)
    return (a1 * b1 / (a1 + b1) * (z - 1) - a0 * b0 / (a0 + b0) * (1 - 1 / z)) / pix


@st.composite
def _near_one_tables(draw):
    """Tables of 1-12 entries over 10^+-3, with up to two more near e^+-700,
    and a tail ratio within 6 to 2^20 ulps of 1 or a moderate one."""
    def entries():
        tab = draw(st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                            min_size=1, max_size=12))
        for _ in range(draw(st.integers(0, 2))):
            big = draw(st.sampled_from([-700.0, 700.0])) + draw(st.floats(-1.0, 1.0))
            tab.insert(draw(st.integers(0, len(tab))), math.exp(big))
        return tuple(tab)

    r = draw(st.integers(6, 2 ** 20).map(lambda k: 1.0 - k * 2.0 ** -53)
             | st.sampled_from([0.05, 0.3, 0.9, 0.99, 0.9999]))
    return table(entries(), entries(), tail_ratio=r)


@settings(max_examples=60, deadline=None, database=None)
@given(_near_one_tables(), st.sampled_from([None, 0.5]))
def test_exact_check_agrees_with_50_digits(spec, scan_p):
    # the rows the float bound leaves open are decided exactly, and each
    # decision the certificate rests on holds at 50 digits
    K = _tail_start(spec)
    cert = certify(spec, K + 3, scan_p)
    if isinstance(cert, NoCertificate):     # an e^+-700 entry can make q_hat tiny
        with mp.workdps(50):
            r, q = mpf(cert.r_hat), mpf(cert.q_hat)
            assert q / 2 * (1 - sqrt((r + 1) / 2)) ** 2 < np.finfo(float).tiny
        return
    assert cert.x0 <= K
    delta = cert.one_minus_rho
    with mp.workdps(50):
        for x in range(cert.x0 + 1, K + 4):
            assert _mp_excess(spec, cert.z, x, K + 3) <= -mpf(delta), x
    for N in (K + 3, 2000):
        assert verify_drift(cert, build_family(spec, N)).holds


@settings(max_examples=60, deadline=None, database=None)
@given(_near_one_tables() | TABLES, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_lifted_excess_is_at_most_the_marginal_one(spec, scan_p, u):
    # at each staircase pair (x, y) of the head family, the random scan's
    # one-step expectation of W = V + c G, formed at 50 digits from the
    # conditional laws, exceeds gamma W by at most (1 - s) c V(x) times the
    # marginal excess eps(x) + delta, for any 0 < tau < delta and 0 < s < 1:
    # so a lifted certificate holds where its marginal rows do
    N = _tail_start(spec) + 3
    cert = certify(spec, N)
    if isinstance(cert, NoCertificate):     # an e^+-700 entry can make q_hat tiny
        return
    tau = u * cert.one_minus_rho
    if not 0.0 < tau < cert.one_minus_rho:
        return
    m = dataclasses.replace(cert, scan_p=scan_p, tau=tau)._one_minus_gamma()
    with mp.workdps(50):
        a, b = _mp_weights(spec, N)
        z, s, t, d = mpf(cert.z), mpf(scan_p), mpf(tau), mpf(cert.one_minus_rho)
        c, gamma = s / ((1 - s) * (1 - t)), 1 - mpf(m.numerator) / m.denominator
        G = [None] + [(a[y] * z ** y + b[y] * z ** (y + 1)) / (a[y] + b[y])
                      for y in range(1, N + 1)]       # G(y) = E[V(X) | Y = y]
        PV = [None, G[1]] + [(a[x] * G[x] + b[x - 1] * G[x - 1]) / (a[x] + b[x - 1])
                             for x in range(2, N + 1)]
        for x, y in [(y, y) for y in range(1, N + 1)] + [(y + 1, y) for y in range(1, N)]:
            V, W = z ** x, z ** x + c * G[y]
            EW = s * (1 + c) * G[y] + (1 - s) * (V + c * PV[x])
            scale = (1 - s) * c * V
            rounding = mpf(10) ** -45 * (EW + W) / scale
            assert (EW - gamma * W) / scale <= PV[x] / V - 1 + d + rounding, (x, y)


@pytest.mark.parametrize("log10_c", [-300, -100, -10, 0, 10, 100, 300])
def test_geometric_leaves_no_row_open(log10_c):
    # the float bound decides every row of geometric(c) at every N, so no
    # geometric certificate needs an exact check: its tail rows sit 0.32
    # (rise + fall) below -delta
    from ergochain.drift import _FILTER, _log_size

    spec = geometric(10.0 ** log10_c)
    cert = certify(spec, 10)
    z, delta = cert.z, cert.one_minus_rho
    for N in (_tail_start(spec) + 3, 2000, 10 ** 6):
        f = build_family(spec, N)
        rise, fall = f.p * (z - 1.0), f.q * ((z - 1.0) / z)
        room = _FILTER * (1.0 + _log_size(f)) * (rise + fall)
        gap = rise - fall + delta
        assert not ((gap + room > 0.0) & (gap - room <= 0.0))[1:].any(), N
        tail = gap[_tail_start(spec):N - 1] / (rise + fall)[_tail_start(spec):N - 1]
        assert (-0.33 < tail).all() and (tail < -0.3).all(), N

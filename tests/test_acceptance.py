"""Acceptance checks.

Each test covers one headline requirement and prints a single PASS or
FAIL line (visible under pytest -s or in the captured output of a
failure). Tolerances are fixed here and must not be loosened; every
expected value was produced by an independent oracle route.
"""

import math
import time

import numpy as np
import pytest

from ergochain import (
    RunConfig,
    admissible_c_interval,
    build_Prgs,
    build_Px,
    build_family,
    classify,
    example_names,
    example_spec,
    find_drift_certificate,
    geometric,
    lift_to_rgs,
    make_rng,
    mixed_geometric,
    power_law,
    run_chain,
    run_marginal_ensemble,
    spectral_gap,
    table,
    tv_curve,
    verify_drift,
)
from test_subgeo import conditional_variance_stat


def check(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({desc})")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_example_verdicts():
    expected = {
        "power-law": "Subgeometric",
        "geometric": "Geometric",
        "mixed-geometric": "Subgeometric",
        "alternating": "Subgeometric",
    }
    t0 = time.perf_counter()
    got = {n: classify(example_spec(n), N=200).verdict for n in expected}
    wall = time.perf_counter() - t0
    check(1, f"four example verdicts at N=200 in {wall:.2f}s",
          got == expected and wall < 5.0)


def test_criterion_2_detailed_balance_on_random_families():
    rng = np.random.default_rng(123456789)
    worst = 0.0
    for k in range(20):
        u = rng.random(4)
        kind = k % 4
        if kind == 0:
            spec = power_law(1.5 + 2.5 * u[0], 0.5 + 1.5 * u[1],
                             0.5 + 1.5 * u[2])
        elif kind == 1:
            spec = geometric(0.2 + 2.0 * u[0])
        elif kind == 2:
            spec = mixed_geometric(0.3 + 1.5 * u[0])
        else:
            m = int(rng.integers(1, 6))
            spec = table(tuple(np.exp(rng.normal(size=m))),
                         tuple(np.exp(rng.normal(size=m))),
                         tail_ratio=0.3 + 0.5 * u[0])
        N = int(rng.integers(10, 501))
        fam = build_family(spec, N)

        # direct route: rebuild the walk probabilities from a and b alone
        a, b = fam.a, fam.b
        bprev = np.concatenate([[0.0], b[:-1]])
        pi = a + bprev
        for x in range(1, N):
            ax, bx, bp = a[x - 1], b[x - 1], bprev[x - 1]
            den_p = (ax + bp) * (ax + bx)
            den_q = (a[x] + b[x - 1]) * (ax + bx)
            # products of deep-tail values can underflow even when each
            # factor is positive; those levels carry no representable flux
            if den_p == 0.0 or den_q == 0.0:
                continue
            p_x = (ax * bx) / den_p
            q_next = (ax * bx) / den_q
            worst = max(worst, abs(pi[x - 1] * p_x - pi[x] * q_next))
    check(2, f"flux residual {worst:.2e} over 20 random families",
          worst < 1e-13)


def test_criterion_3_drift_certificates_and_random_lifts():
    fam = build_family(example_spec("geometric"), 200)
    cert = find_drift_certificate(fam)
    base = verify_drift(cert, fam)
    ok = cert.rho < 1.0 and base.holds

    rng = np.random.default_rng(7)
    for scan_p in (0.25, 0.5, 0.75):
        lo, hi = admissible_c_interval(cert, scan_p)
        for u in rng.random(5):
            c = lo * (hi / lo) ** (0.05 + 0.9 * u)   # strictly interior
            lifted = lift_to_rgs(cert, scan_p, c=c)
            rep = verify_drift(lifted, fam)
            ok = ok and rep.holds and cert.rho < lifted.gamma < 1.0
    check(3, "certificate and 15 random-scan lifts all verify exhaustively",
          ok)


def _direct_T(f, i: int) -> float:
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


def test_criterion_4_variance_statistic_identity():
    worst = 0.0
    for name in example_names():
        fam = build_family(example_spec(name), 200)
        for i in range(2, 201):
            worst = max(worst, abs(conditional_variance_stat(fam, i)
                                   - _direct_T(fam, i)))
    check(4, f"closed form vs direct conditional variance, max {worst:.2e}",
          worst <= 1e-12)


def test_criterion_5_marginal_and_dgs_rates_agree():
    from ergochain import build_Pdgs

    fam = build_family(example_spec("geometric"), 100)
    r_marg = tv_curve(build_Px(fam), 1, 200).fitted_rate
    r_dgs = tv_curve(build_Pdgs(fam), (1, 1), 200).fitted_rate
    rel = abs(r_marg - r_dgs) / r_marg
    check(5, f"fitted rates {r_marg:.6f} vs {r_dgs:.6f}, rel diff {rel:.2e}",
          rel < 0.05 and r_marg < 1.0 - 1e-3 and r_dgs < 1.0 - 1e-3)


def test_criterion_6_truncation_stability():
    spec = example_spec("geometric")
    rates = [tv_curve(build_Px(build_family(spec, N)), 1, 400).fitted_rate
             for N in (100, 200)]
    stable = abs(rates[0] - rates[1]) < 1e-6

    pl = example_spec("power-law")
    gaps = [spectral_gap(build_Px(build_family(pl, N))).gap
            for N in (100, 200, 400)]
    shrinking = gaps[0] > gaps[1] > gaps[2] > 0.0
    check(6, f"rate drift {abs(rates[0] - rates[1]):.2e}; "
             f"slow-family gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}",
          stable and shrinking)


def test_criterion_7_sampler_frequencies_and_determinism():
    fam = build_family(example_spec("geometric"), 50)
    n = 100_000
    ok = True

    rng = make_rng(11, "marginal_x")
    P = build_Px(fam).P.toarray()
    for x0 in (2, 10, 25):
        u = rng.random(n)
        p, q = fam.p[x0 - 1], fam.q[x0 - 1]
        new = np.where(u < p, x0 + 1, np.where(u < p + q, x0 - 1, x0))
        for t in (x0 - 1, x0, x0 + 1):
            prob = P[x0 - 1, t - 1]
            if prob <= 0.0:
                continue
            sigma = math.sqrt(n * prob * (1.0 - prob))
            ok = ok and abs((new == t).sum() - n * prob) < 3.0 * sigma

    cfg = RunConfig(kind="rgs", n_steps=500, seed=42, init=(1, 1), scan_p=0.5)
    t1, t2 = run_chain(fam, cfg), run_chain(fam, cfg)
    same = np.array_equal(t1.xs, t2.xs) and np.array_equal(t1.ys, t2.ys)
    check(7, "one-step frequencies within 3 sigma; equal seeds, equal traces",
          ok and same)


def test_criterion_8_random_scan_invariance():
    worst = 0.0
    for name in example_names():
        fam = build_family(example_spec(name), 200)
        for scan_p in (0.3, 0.5, 0.7):
            tm = build_Prgs(fam, scan_p)
            pi = tm.stationary
            worst = max(worst, float(np.abs(pi @ tm.P - pi).sum()))
    check(8, f"stationarity residual {worst:.2e} across examples and scans",
          worst < 1e-12)


def test_criterion_9_error_estimate_calibration():
    from ergochain import batch_means

    vals = np.random.default_rng(2024).random(1_000_000)
    est = batch_means(vals)
    iid_ok = abs(est.sigma2_hat - 1.0 / 12.0) < 0.1 / 12.0

    fam = build_family(example_spec("geometric"), 200)
    truth = 1.0 - fam.pi_x[0]
    res = run_marginal_ensemble(fam, 100, 1_000_000, seed=42, init=1,
                                g=lambda s: (s >= 2).astype(float))
    hits = sum(1 for e in res.estimates
               if abs(e.g_bar - truth) <= 2.0 * e.mcse)
    check(9, f"iid variance within 10%; interval coverage {hits}/100",
          iid_ok and hits >= 90)

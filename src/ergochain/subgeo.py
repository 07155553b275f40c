"""Conditional-variance diagnostics and divergence tests for slow mixing.

For the indicator H_i(x) = 1{x >= i}, standardized against the marginal
pi_X to h_i = (H_i - mu_i) / sqrt(mu_i (1 - mu_i)) with
mu_i = sum_{x >= i} pi_X(x), the expected conditional variance under the
two-point conditionals collapses to the closed form

    T_i = E[ Var(h_i(X) | Y) ]
        = [mu_i (1 - mu_i)]^{-1} a_{i-1} b_{i-1} / (a_{i-1} + b_{i-1}),

because Var(H_i | Y = y) vanishes except at y = i - 1. Since h_i has unit
variance, 1 - T_i lower-bounds the operator norm of the marginal kernel
on mean-zero functions, and 1 - scan_p T_i does the same for the
random-scan kernel. If T_i can be pushed to zero along a subsequence the
norm is one and no geometric rate exists; that happens exactly when one
of the ratio statistics

    S1_i = sum_{x >= i} (a_x + b_x) / a_{i-1}
    S2_i = sum_{x >= i} (a_x + b_x) / b_{i-1}
    S3_i = b_i / a_i

is unbounded, by the identity
1 / T_i = (1 - mu_i) (S1_i + S2_i + b_{i-1}/a_{i-1} + 1).

Whether each is unbounded is read from the spec's exact tail limits
(spec.tail_limits) by divergence_flags, not from its values, so no flag
depends on N:

  S1  unbounded iff A >= 1
  S2  unbounded iff A >= 1 or lim sup a_i / b_{i-1} is infinite
  S3  unbounded iff lim sup b_i / a_i is infinite

In a ratio row (power_law, geometric, table) a_i / b_i tends to k and
a_i / a_{i-1} to r, so the tail from i is (1 + 1/k) a_{i-1} r / (1 - r)
to first order: for r < 1, S1_i -> r (1 + 1/k) / (1 - r),
S2_i -> r (1 + k) / (1 - r) and S3_i -> 1 / k, all finite, while for
r = 1 (power_law) S1 and S2 grow like i and S3 tends to 1 / k.
mixed_geometric divides its e^-i tail by b_{i-1} = e^-2(i-1) in S2
alone. In alternating, a_i and b_i each fall to e^-2i along one parity,
so S1 and S2 (through a_{i-1} and b_{i-1}) and S3 = b_i / a_i all grow
like e^i along it.

Only the CSV evaluates the statistics themselves, on the untruncated
spec for i = 2..N in log space, the tail sums completed with the spec's
closed-form mass beyond N; the JSON summary, and so classify, read
their flags alone.

mu_i, T_i and the norm bounds all come from one suffix and one prefix
logaddexp sum of pi_X. The bounds keep log10 min_T, which carries min_T
where it underflows to 0.0 (about 10^-868 for mixed-geometric at
N = 2000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family import BivariateFamily
from .spec import SequenceSpec, TailLimits, check_scan_p, tail_limits


def _log_mu_T(fam: BivariateFamily) -> tuple[np.ndarray, np.ndarray]:
    """log mu_i and log T_i for i = 2..N, from one suffix sum of pi_X
    (mu_i = sum_{x >= i}) and one prefix sum (1 - mu_i = sum_{x < i})."""
    log_mu = np.logaddexp.accumulate(fam.log_pix[:0:-1])[::-1]
    log_omm = np.logaddexp.accumulate(fam.log_pix[:-1])
    return log_mu, fam.log_t[:-1] - log_mu - log_omm    # t_{i-1}, i = 2..N


def divergence_flags(lim: TailLimits) -> dict:
    """Whether the exact tail limits leave S1, S2 and S3 unbounded, in
    that order."""
    s1 = lim.A >= 1.0
    return {"S1": s1, "S2": s1 or lim.a_over_bprev == math.inf,
            "S3": lim.b_over_a == math.inf}


def _log_S(spec: SequenceSpec, N: int) -> tuple[np.ndarray, ...]:
    """log S1, log S2 and log S3 on the untruncated spec for i = 2..N.

    Tail sums run termwise to N and are completed with the spec's
    closed-form mass beyond it.
    """
    i = np.arange(1, N + 1)
    la, lb = spec.log_a(i), spec.log_b(i)
    log_piy = np.logaddexp(la, lb)
    log_tail = np.logaddexp(
        np.logaddexp.accumulate(log_piy[::-1])[::-1], spec.log_mass_beyond(N))
    # S1_i and S2_i for i = 2..N divide the tail from i by a_{i-1}, b_{i-1}
    return log_tail[1:] - la[:-1], log_tail[1:] - lb[:-1], lb[1:] - la[1:]


@dataclass(frozen=True)
class SubgeoReport:
    """Family-level summary of the conditional-variance diagnostics.

    log_mu and log_T hold log mu_i and log T_i for i = 2..N, and flags the
    divergence flags of the spec's exact tail limits. The norm bounds come
    from the smallest log T; only to_csv evaluates the statistics.
    """

    spec: SequenceSpec = field(repr=False)
    N: int
    scan_p: float | None
    log_mu: np.ndarray = field(repr=False)
    log_T: np.ndarray = field(repr=False)
    flags: dict

    @property
    def mu(self) -> np.ndarray:
        return np.exp(self.log_mu)

    @property
    def T(self) -> np.ndarray:
        return np.exp(self.log_T)

    def to_csv(self) -> str:
        with np.errstate(over="ignore"):    # a diverging S may overflow to inf
            s1, s2, s3 = (np.exp(v) for v in _log_S(self.spec, self.N))
        mu, T = self.mu, self.T
        lines = ["i,mu_i,T_i,S1_i,S2_i,S3_i"]
        for k in range(self.N - 1):
            cells = (mu[k], T[k], s1[k], s2[k], s3[k])
            lines.append(f"{k + 2}," + ",".join(repr(float(v)) for v in cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """The norm bounds at the best separating indicator; log10_min_T
        carries min_T where it underflows to 0.0."""
        k = int(np.argmin(self.log_T))
        min_T = float(np.exp(self.log_T[k]))
        return {
            "N": self.N,
            "min_T": min_T,
            "log10_min_T": float(self.log_T[k]) / math.log(10.0),
            "norm_lower_bound": 1.0 - min_T,
            "rgs_norm_lower_bound": None if self.scan_p is None
            else 1.0 - self.scan_p * min_T,
            "scan_p": self.scan_p,
            "diverging": dict(self.flags),
        }


def build_subgeo_report(fam: BivariateFamily, *,
                        scan_p: float | None = None) -> SubgeoReport:
    """Assemble log mu and log T for i = 2..N, from one suffix and one
    prefix sum of pi_X, and the flags of the spec's exact tail limits."""
    if scan_p is not None:
        scan_p = check_scan_p(scan_p)
    log_mu, log_T = _log_mu_T(fam)
    return SubgeoReport(spec=fam.spec, N=fam.N, scan_p=scan_p, log_mu=log_mu,
                        log_T=log_T, flags=divergence_flags(tail_limits(fam.spec)))


__all__ = ["SubgeoReport", "divergence_flags", "build_subgeo_report"]

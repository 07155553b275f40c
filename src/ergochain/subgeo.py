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

Statistics are evaluated on the untruncated spec out to a horizon (four
truncation levels by default, and at least 16) in log space; a statistic
is flagged diverging when its running maximum tops 10^3 and is still
growing by ten percent in the last quarter of the horizon.

mu_i, T_i and the norm bounds all come from one suffix and one prefix
logaddexp sum of pi_X. The bounds keep log10 min_T, which carries min_T
where it underflows to 0.0 (about 10^-868 for mixed-geometric at
N = 2000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, NonPositiveSequence
from .family import BivariateFamily
from .spec import SequenceSpec, check_scan_p

_DIVERGE_LEVEL = math.log(1e3)
_DIVERGE_GROWTH = math.log(1.1)

STATISTICS = ("S1", "S2", "S3")


def _log_mu_T(fam: BivariateFamily) -> tuple[np.ndarray, np.ndarray]:
    """log mu_i and log T_i for i = 2..N, from one suffix sum of pi_X
    (mu_i = sum_{x >= i}) and one prefix sum (1 - mu_i = sum_{x < i})."""
    log_mu = np.logaddexp.accumulate(fam.log_pix[:0:-1])[::-1]
    log_omm = np.logaddexp.accumulate(fam.log_pix[:-1])
    return log_mu, fam.log_t[:-1] - log_mu - log_omm    # t_{i-1}, i = 2..N


def conditional_variance_stat(fam: BivariateFamily, i: int) -> float:
    """T_i = E[Var(h_i(X) | Y)] by the closed form, for 2 <= i <= N."""
    if not 2 <= i <= fam.N:
        raise IndexOutOfRange(f"statistic defined for 2 <= i <= N, got {i}")
    return float(np.exp(_log_mu_T(fam)[1][i - 2]))


@dataclass(frozen=True)
class NormBounds:
    """Operator-norm lower bounds from the best separating indicator.

    log10_min_T carries min_T where it underflows to 0.0."""

    px_norm_lb: float
    rgs_norm_lb: float | None
    min_T: float
    log10_min_T: float


def _norm_bounds(log_T: np.ndarray, scan_p: float | None) -> NormBounds:
    if scan_p is not None:
        scan_p = check_scan_p(scan_p)
    k = int(np.argmin(log_T))
    min_T = float(np.exp(log_T[k]))
    rgs = None if scan_p is None else 1.0 - scan_p * min_T
    return NormBounds(px_norm_lb=1.0 - min_T, rgs_norm_lb=rgs, min_T=min_T,
                      log10_min_T=float(log_T[k]) / math.log(10.0))


@dataclass(frozen=True)
class DivergenceStats:
    """The three ratio statistics on 2..horizon and their divergence flags.

    Values are exponentials of log-space computations and may overflow to
    inf for strongly diverging families; the flags are decided on the log
    scale and are unaffected.
    """

    horizon: int
    indices: np.ndarray = field(repr=False)
    log_S1: np.ndarray = field(repr=False)
    log_S2: np.ndarray = field(repr=False)
    log_S3: np.ndarray = field(repr=False)
    flags: dict

    def values(self, name: str) -> np.ndarray:
        logs = {"S1": self.log_S1, "S2": self.log_S2, "S3": self.log_S3}[name]
        with np.errstate(over="ignore"):
            return np.exp(logs)

    def first_diverging(self) -> str | None:
        for name in STATISTICS:
            if self.flags[name]:
                return name
        return None


def _diverging(logs: np.ndarray) -> bool:
    """Running max above 10^3 and still growing 10 percent in the last quarter."""
    n = len(logs)
    if n < 8:
        return False
    cut = (3 * n) // 4
    r_end = float(np.max(logs))
    r_3q = float(np.max(logs[:cut]))
    return r_end > _DIVERGE_LEVEL and r_end > r_3q + _DIVERGE_GROWTH


def divergence_statistics(spec: SequenceSpec, horizon: int) -> DivergenceStats:
    """Evaluate S1, S2, S3 on the untruncated spec for i = 2..horizon.

    Tail sums run termwise to the horizon and are completed with the
    spec's closed-form mass beyond it.
    """
    if horizon < 16:
        raise IndexOutOfRange("horizon must be at least 16")
    i = np.arange(1, horizon + 1)
    la, lb = spec.log_a(i), spec.log_b(i)
    if not (np.isfinite(la).all() and np.isfinite(lb).all()):
        raise NonPositiveSequence("spec generated a nonpositive or nonfinite value")
    log_piy = np.logaddexp(la, lb)
    beyond = spec.log_mass_beyond(horizon)
    log_tail = np.logaddexp(
        np.logaddexp.accumulate(log_piy[::-1])[::-1], beyond)
    # S1_i and S2_i for i = 2..horizon divide the tail from i by a_{i-1}, b_{i-1}
    log_S1 = log_tail[1:] - la[:-1]
    log_S2 = log_tail[1:] - lb[:-1]
    log_S3 = lb[1:] - la[1:]
    flags = {"S1": _diverging(log_S1), "S2": _diverging(log_S2),
             "S3": _diverging(log_S3)}
    return DivergenceStats(horizon=horizon, indices=np.arange(2, horizon + 1),
                           log_S1=log_S1, log_S2=log_S2, log_S3=log_S3,
                           flags=flags)


@dataclass(frozen=True)
class SubgeoReport:
    """Family-level summary of the conditional-variance diagnostics.

    mu and T hold mu_i and T_i for i = 2..N; bounds are the norm bounds
    taken from the same log T.
    """

    N: int
    mu: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)
    bounds: NormBounds
    scan_p: float | None
    stats: DivergenceStats

    def to_csv(self) -> str:
        s1 = self.stats.values("S1")[: self.N - 1]
        s2 = self.stats.values("S2")[: self.N - 1]
        s3 = self.stats.values("S3")[: self.N - 1]
        lines = ["i,mu_i,T_i,S1_i,S2_i,S3_i"]
        for k in range(self.N - 1):
            cells = (self.mu[k], self.T[k], s1[k], s2[k], s3[k])
            lines.append(f"{k + 2}," + ",".join(repr(float(v)) for v in cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "horizon": self.stats.horizon,
            "min_T": self.bounds.min_T,
            "log10_min_T": self.bounds.log10_min_T,
            "norm_lower_bound": self.bounds.px_norm_lb,
            "rgs_norm_lower_bound": self.bounds.rgs_norm_lb,
            "scan_p": self.scan_p,
            "diverging": dict(self.stats.flags),
        }


def build_subgeo_report(fam: BivariateFamily, horizon: int | None = None,
                        scan_p: float | None = None) -> SubgeoReport:
    """Assemble mu, T, norm bounds and divergence flags for a family; mu,
    T and the bounds share one suffix and one prefix sum of pi_X."""
    if horizon is None:
        horizon = max(4 * fam.N, 16)
    if horizon < fam.N:
        raise IndexOutOfRange("horizon must reach the truncation level")
    stats = divergence_statistics(fam.spec, horizon)
    log_mu, log_T = _log_mu_T(fam)
    return SubgeoReport(N=fam.N, mu=np.exp(log_mu), T=np.exp(log_T),
                        bounds=_norm_bounds(log_T, scan_p), scan_p=scan_p,
                        stats=stats)


__all__ = [
    "STATISTICS", "NormBounds", "DivergenceStats", "SubgeoReport",
    "conditional_variance_stat",
    "divergence_statistics", "build_subgeo_report",
]

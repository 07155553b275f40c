"""Batch-means Monte Carlo error estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewSamples

CLT_NOTE = ("batch means assumes a central limit theorem holds for g along "
            "the chain; without a geometric rate of convergence the error "
            "estimate can be badly calibrated")


@dataclass(frozen=True)
class BatchMeansEstimate:
    g_bar: float
    sigma2_hat: float
    mcse: float
    batch_size: int
    num_batches: int
    n: int

    def to_json_dict(self) -> dict:
        return {"g_bar": self.g_bar, "mcse": self.mcse,
                "batch_size": self.batch_size, "n": self.n}


def batch_layout(n: int, batch_size: int | None) -> tuple[int, int]:
    """(batch_size, number of full batches) for n samples, the batch size
    defaulting to floor(sqrt(n)); TooFewSamples unless there are the 4
    batches batch means needs."""
    if batch_size is None:
        batch_size = max(1, int(np.sqrt(n)))
    if batch_size < 1:
        raise TooFewSamples(f"batch_size must be >= 1, got {batch_size}")
    m = n // batch_size
    if m < 4:
        raise TooFewSamples(
            f"batch means needs at least 4 batches, got {m} "
            f"(n={n}, batch_size={batch_size})")
    return batch_size, m


def _from_means(g_bar: float, means: np.ndarray, batch_size: int,
                n: int) -> BatchMeansEstimate:
    sigma2 = batch_size * float(np.var(means, ddof=1))
    return BatchMeansEstimate(g_bar=g_bar, sigma2_hat=sigma2,
                              mcse=float(np.sqrt(sigma2 / n)),
                              batch_size=batch_size, num_batches=means.size, n=n)


def batch_means(values, batch_size: int | None = None) -> BatchMeansEstimate:
    """Estimate the Monte Carlo standard error of the mean of values.

    The default batch size is floor(sqrt(n)); a trailing partial batch is
    dropped from the variance but not from the mean.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        raise TooFewSamples("no samples")
    batch_size, m = batch_layout(n, batch_size)
    means = values[:m * batch_size].reshape(m, batch_size).mean(axis=1)
    return _from_means(float(values.mean()), means, batch_size, n)


__all__ = ["CLT_NOTE", "BatchMeansEstimate", "batch_means"]

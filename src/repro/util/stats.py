"""Lightweight statistics over repeated simulation trials.

The experiments measure flooding times over many independent trials; these
helpers summarise those samples (mean, quantiles, confidence intervals) and
provide the "with high probability" style quantile estimates used when
comparing to the paper's w.h.p. bounds.  Everything here operates on fully
materialized sample sequences; the streaming analogues — running moments,
the sequential stopping rules built on them and the sketch adaptive records
embed — live in :mod:`repro.stats.sequential`, which derives its z-values from the
same normal quantile as :func:`mean_confidence_interval` so both paths
report identical intervals for identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics of a sample of repeated measurements."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    q90: float
    q99: float

    def as_dict(self) -> dict:
        """Return the summary as a plain dictionary (for table rendering)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "q90": self.q90,
            "q99": self.q99,
        }


def summarize(samples: Sequence[float]) -> TrialSummary:
    """Compute a :class:`TrialSummary` of ``samples``."""
    return summarize_with_whp(list(samples), 1)[0]


def whp_quantile(samples: Sequence[float], n: int) -> float:
    """Empirical analogue of a "with high probability" value.

    The paper's bounds hold with probability at least ``1 - 1/n``.  For a
    finite sample we report the ``1 - 1/n`` quantile (clamped to the largest
    observation when the sample is small).
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute a quantile of an empty sample")
    if n < 2:
        return float(arr.max())
    level = min(1.0 - 1.0 / n, 1.0)
    return float(np.quantile(arr, level))


def summarize_with_whp(samples: Sequence[float], n: int) -> tuple[TrialSummary, float]:
    """``(summarize(samples), whp_quantile(samples, n))`` from one float array.

    q90, q99 and the ``1 - 1/n`` level come from one ``np.quantile`` call,
    which gives the values of separate calls exactly.  The median stays on
    ``np.median``: a vectorised 0.5 quantile can differ in the last bit.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    levels = [0.90, 0.99] if n < 2 else [0.90, 0.99, min(1.0 - 1.0 / n, 1.0)]
    quantiles = np.quantile(arr, levels).tolist()
    summary = TrialSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
        q90=quantiles[0],
        q99=quantiles[1],
    )
    return summary, quantiles[2] if n >= 2 else summary.maximum


def z_score(confidence: float) -> float:
    """The two-sided normal critical value at ``confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    from scipy import stats as scipy_stats

    return float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))


def halfwidth(std: float, count: int, confidence: float = 0.95) -> float:
    """Normal-approximation CI half-width for a sample of ``count`` values."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count == 1:
        return 0.0
    return z_score(confidence) * std / float(np.sqrt(count))


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> tuple[float, float, float]:
    """Return ``(mean, low, high)`` — a normal-approximation confidence interval."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute a confidence interval of an empty sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    z = z_score(confidence)
    return mean, mean - z * sem, mean + z * sem


def empirical_ccdf(samples: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(values, P(X >= value))`` — the empirical survival function."""
    arr = np.sort(np.asarray(list(samples), dtype=float))
    if arr.size == 0:
        raise ValueError("cannot compute a CCDF of an empty sample")
    values = np.unique(arr)
    ccdf = np.array([(arr >= v).mean() for v in values])
    return values, ccdf

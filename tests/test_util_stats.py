"""Tests for repro.util.stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    TrialSummary,
    empirical_ccdf,
    mean_confidence_interval,
    summarize,
    summarize_with_whp,
    whp_quantile,
)


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.median == 3

    def test_single_sample_has_zero_std(self):
        summary = summarize([7.0])
        assert summary.std == 0.0
        assert summary.mean == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_quantiles_ordering(self):
        summary = summarize(range(101))
        assert summary.median <= summary.q90 <= summary.q99 <= summary.maximum

    def test_as_dict_round_trip(self):
        summary = summarize([1, 2, 3])
        d = summary.as_dict()
        assert d["count"] == 3
        assert d["mean"] == pytest.approx(2.0)
        assert set(d) == {"count", "mean", "std", "min", "max", "median", "q90", "q99"}

    def test_is_frozen(self):
        summary = summarize([1, 2])
        with pytest.raises(AttributeError):
            summary.mean = 10.0  # type: ignore[misc]


class TestWhpQuantile:
    def test_small_n_returns_max(self):
        assert whp_quantile([1, 2, 3], n=1) == 3

    def test_large_n_approaches_max(self):
        samples = list(range(100))
        assert whp_quantile(samples, n=10_000) >= 98

    def test_monotone_in_n(self):
        samples = list(range(100))
        assert whp_quantile(samples, 10) <= whp_quantile(samples, 1000)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            whp_quantile([], 10)


def _separate_summary(samples) -> TrialSummary:
    """A summary from one ``np.quantile`` call per level (the oracle)."""
    arr = np.asarray(list(samples), dtype=float)
    return TrialSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
        q90=float(np.quantile(arr, 0.90)),
        q99=float(np.quantile(arr, 0.99)),
    )


class TestSummarizeWithWhp:
    """The one-array summary equals separate quantile calls exactly."""

    @pytest.mark.parametrize("size", [1, 2, 3, 24, 1024])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["small-ints", "wide-ints", "floats"]),
        n=st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=4, max_value=10**7)),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_separate_calls(self, size, seed, kind, n):
        rng = np.random.default_rng(seed)
        if kind == "small-ints":
            samples = rng.integers(1, 12, size=size).tolist()
        elif kind == "wide-ints":
            samples = rng.integers(0, 2**40, size=size).tolist()
        else:
            samples = (rng.standard_normal(size) * rng.exponential(100.0)).tolist()
        summary, whp = summarize_with_whp(samples, n)
        # repr tells -0.0 from 0.0 and prints every float to its last bit.
        assert repr(summary) == repr(_separate_summary(samples))
        assert repr(summarize(samples)) == repr(summary)
        assert repr(whp) == repr(whp_quantile(samples, n))
        assert type(whp) is float

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_with_whp([], 10)


class TestMeanConfidenceInterval:
    def test_contains_mean(self):
        mean, low, high = mean_confidence_interval([1, 2, 3, 4, 5])
        assert low <= mean <= high

    def test_single_sample_degenerate(self):
        mean, low, high = mean_confidence_interval([3.0])
        assert mean == low == high == 3.0

    def test_width_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=20)
        large = rng.normal(size=2000)
        _, lo_s, hi_s = mean_confidence_interval(small)
        _, lo_l, hi_l = mean_confidence_interval(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1, 2], confidence=1.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])


class TestEmpiricalCcdf:
    def test_values_sorted_unique(self):
        values, _ = empirical_ccdf([3, 1, 2, 2])
        assert list(values) == [1, 2, 3]

    def test_survival_starts_at_one(self):
        _, ccdf = empirical_ccdf([5, 6, 7])
        assert ccdf[0] == 1.0

    def test_survival_decreasing(self):
        _, ccdf = empirical_ccdf(list(range(50)))
        assert all(a >= b for a, b in zip(ccdf, ccdf[1:]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_ccdf([])

"""Tests for repro.stats.sequential: moments, the record sketch, stopping rules."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats.sequential import (
    MomentSketch,
    StoppingRule,
    quantile_rank_epsilon,
    sketch_from_samples,
    sketch_salt,
    z_score,
)
from repro.util.stats import halfwidth

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
int_samples = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200)
float_samples = st.lists(finite_floats, min_size=1, max_size=200)


def _exact_mean_std(samples) -> tuple[float, float]:
    """Mean and ``ddof=1`` standard deviation in exact rational arithmetic.

    Float oracles such as ``np.std`` cancel catastrophically on near-constant
    samples of large magnitude (``np.std([x, x, x], ddof=1)`` is ~1e-7, not
    0, at ``x`` ~ 9e8), so sketch accuracy is judged against this instead.
    """
    values = [Fraction(value) for value in samples]
    mean = sum(values, Fraction(0)) / len(values)
    if len(values) == 1:
        return float(mean), 0.0
    variance = sum((value - mean) ** 2 for value in values) / (len(values) - 1)
    return float(mean), math.sqrt(variance)


class TestMomentSketch:
    @given(samples=float_samples)
    @example(samples=[870144847.5755365] * 3)
    @example(samples=[999996151.9999999, -999996073.0])
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_summary(self, samples):
        sketch = MomentSketch()
        sketch.update_many(samples)
        mean, std = _exact_mean_std(samples)
        assert sketch.count == len(samples)
        assert sketch.minimum == min(samples)
        assert sketch.maximum == max(samples)
        assert sketch.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert sketch.std == pytest.approx(std, rel=1e-6, abs=1e-7)

    def test_ci_halfwidth_matches_util_stats(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(50.0, 5.0, size=200)
        sketch = MomentSketch()
        sketch.update_many(samples)
        assert sketch.ci_halfwidth(0.95) == pytest.approx(
            halfwidth(sketch.std, sketch.count, 0.95)
        )

    def test_empty_and_singleton_edges(self):
        empty = MomentSketch()
        assert empty.count == 0
        one = MomentSketch()
        one.update(3.0)
        assert one.variance == 0.0
        assert one.ci_halfwidth(0.95) == float("inf")


def _reservoir(payload: dict) -> list[float]:
    """The values a sketch payload's quantile reservoir keeps."""
    return [value for _, value in payload["quantiles"]["entries"]]


class TestQuantileSketch:
    @given(samples=int_samples, seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_exact_when_under_capacity(self, samples, seed):
        salt = sketch_salt({"seed": seed})
        payload = sketch_from_samples(samples, salt, capacity=512)
        if len(samples) <= 512:
            assert sorted(_reservoir(payload)) == sorted(samples)
            assert payload["quantiles"]["total"] == len(samples)
            assert payload["moments"]["count"] == len(samples)
            assert payload["moments"]["total"] == sum(samples)

    def test_quantiles_within_dkw_bound(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(100.0, 10.0, size=20_000).tolist()
        salt = sketch_salt({"seed": 11})
        capacity = 1024
        kept = _reservoir(sketch_from_samples(samples, salt, capacity=capacity))
        assert len(kept) == capacity
        epsilon = quantile_rank_epsilon(capacity, 0.99)
        ordered = np.sort(np.asarray(samples))
        for q in (0.1, 0.5, 0.9):
            estimate = float(np.quantile(kept, q))
            rank = np.searchsorted(ordered, estimate) / len(ordered)
            assert abs(rank - q) <= 2.0 * epsilon

    @pytest.mark.parametrize(
        "samples, capacity, length, digest",
        [
            ([5, 3, 3, 9, 4], 512, 321,
             "458cf28a5e0c821878f633a086bd80951f5afa688cb10d73aaaa227494edd9ac"),
            (list(range(40)), 16, 644,
             "f5829ccf8c960b3fb8242591919f6c04f422623a06b80bbcaf6228eaf3899e0a"),
            ([1.5, 2, 7.25], 2, 261,
             "0be75b8284fb86844a6b30232be39b181bd9dc40b84e586fbf2fb7cd3c993be7"),
        ],
    )
    def test_payload_bytes_pinned(self, samples, capacity, length, digest):
        # Adaptive store records embed this payload, so its bytes are part
        # of the store format: integer, truncated and float-track streams.
        payload = sketch_from_samples(samples, sketch_salt({"seed": 3}), capacity=capacity)
        text = json.dumps(payload, sort_keys=True)
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (length, digest)


class TestStoppingRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(target_halfwidth=0.0)
        with pytest.raises(ValueError):
            StoppingRule(target_halfwidth=1.0, confidence=1.0)
        with pytest.raises(ValueError):
            StoppingRule(target_halfwidth=1.0, min_trials=1)
        with pytest.raises(ValueError):
            StoppingRule(target_halfwidth=1.0, check_every=0)

    def test_roundtrip_and_cache_token(self):
        rule = StoppingRule(target_halfwidth=2.5, confidence=0.9, min_trials=8)
        clone = StoppingRule.from_dict(json.loads(json.dumps(rule.as_dict())))
        assert clone == rule
        assert clone.cache_token() == rule.cache_token()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            StoppingRule.from_dict({"target_halfwidth": 1.0, "bogus": 1})
        with pytest.raises(ValueError):
            StoppingRule.from_dict({"confidence": 0.9})

    def test_satisfied_tracks_halfwidth(self):
        rule = StoppingRule(target_halfwidth=5.0, min_trials=4, check_every=1)
        moments = MomentSketch()
        moments.update_many([10.0, 10.1, 9.9, 10.0])
        assert rule.satisfied(moments)
        spread = MomentSketch()
        spread.update_many([0.0, 100.0, 0.0, 100.0])
        assert not rule.satisfied(spread)

    def test_relative_target(self):
        rule = StoppingRule(target_halfwidth=0.1, relative=True)
        assert rule.target_for(50.0) == pytest.approx(5.0)

    def test_min_trials_gate(self):
        rule = StoppingRule(target_halfwidth=1e9, min_trials=10, check_every=1)
        moments = MomentSketch()
        moments.update_many([1.0, 1.0, 1.0])
        assert not rule.satisfied(moments)


def test_z_score_single_source():
    assert z_score(0.95) == pytest.approx(1.959963984540054)
    from repro.util.stats import z_score as util_z

    assert util_z is z_score

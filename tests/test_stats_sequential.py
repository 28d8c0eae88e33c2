"""Tests for repro.stats.sequential: sketches, quantiles, stopping rules."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats.sequential import (
    DEFAULT_RESERVOIR,
    BatchSketch,
    MomentSketch,
    QuantileSketch,
    StoppingRule,
    merge_sketch_payloads,
    quantile_rank_epsilon,
    sketch_from_samples,
    sketch_salt,
    summary_from_sketch,
    whp_from_sketch,
    z_score,
)
from repro.util.stats import halfwidth, summarize, whp_quantile

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

    @given(samples=int_samples, cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, samples, cut):
        cut = cut % (len(samples) + 1)
        left, right = MomentSketch(), MomentSketch()
        left.update_many(samples[:cut])
        right.update_many(samples[cut:])
        left.merge(right)
        whole = MomentSketch()
        whole.update_many(samples)
        # Integer streams keep exact integer sums, so any split merges to
        # byte-identical persisted state — not merely approximately equal.
        assert left.as_dict() == whole.as_dict()

    @given(samples=int_samples)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_state(self, samples):
        sketch = MomentSketch()
        sketch.update_many(samples)
        clone = MomentSketch.from_dict(json.loads(json.dumps(sketch.as_dict())))
        assert clone.as_dict() == sketch.as_dict()
        assert clone.mean == sketch.mean
        assert clone.variance == sketch.variance

    @given(samples=float_samples, cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_float_track_roundtrip_and_merge(self, samples, cut):
        samples = [*samples, 0.5]  # one non-integer value forces the float track
        cut = cut % (len(samples) + 1)
        left, right = MomentSketch(), MomentSketch()
        left.update_many(samples[:cut])
        right.update_many(samples[cut:])
        left.merge(right)
        clone = MomentSketch.from_dict(json.loads(json.dumps(left.as_dict())))
        assert not clone.exact
        assert clone.as_dict() == left.as_dict()
        assert clone.mean == left.mean
        mean, _ = _exact_mean_std(samples)
        assert left.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)

    def test_float_payload_with_mean_still_loads(self):
        # Float-track payloads persisted "mean" before the compensated sum.
        payload = {"count": 2, "min": 1.0, "max": 2.0, "mean": 1.5, "m2": 0.5}
        sketch = MomentSketch.from_dict(payload)
        assert not sketch.exact
        assert sketch.mean == 1.5
        assert sketch.variance == 0.5

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


class TestQuantileSketch:
    @given(samples=int_samples, seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_exact_when_under_capacity(self, samples, seed):
        salt = sketch_salt({"seed": seed})
        sketch = QuantileSketch.from_samples(samples, salt, capacity=512)
        if len(samples) <= 512:
            assert sorted(sketch.values()) == sorted(samples)
            assert sketch.quantile(0.5) == pytest.approx(
                float(np.quantile(np.asarray(samples, dtype=float), 0.5))
            )

    @given(
        samples=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=20, max_size=300
        ),
        parts=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharded_merge_is_byte_identical(self, samples, parts, seed):
        salt = sketch_salt({"seed": seed})
        whole = QuantileSketch.from_samples(samples, salt, capacity=64)
        shards = [
            QuantileSketch.from_samples(
                samples[index::parts], salt, start=index, stride=parts, capacity=64
            )
            for index in range(parts)
        ]
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.as_dict() == whole.as_dict()

    def test_quantiles_within_dkw_bound(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(100.0, 10.0, size=20_000).tolist()
        salt = sketch_salt({"seed": 11})
        capacity = 1024
        sketch = QuantileSketch.from_samples(samples, salt, capacity=capacity)
        epsilon = quantile_rank_epsilon(capacity, 0.99)
        ordered = np.sort(np.asarray(samples))
        for q in (0.1, 0.5, 0.9):
            estimate = sketch.quantile(q)
            rank = np.searchsorted(ordered, estimate) / len(ordered)
            assert abs(rank - q) <= 2.0 * epsilon

    def test_merge_rejects_mismatched_salt_or_capacity(self):
        a = QuantileSketch.from_samples([1, 2], sketch_salt({"s": 1}), capacity=8)
        b = QuantileSketch.from_samples([1, 2], sketch_salt({"s": 2}), capacity=8)
        c = QuantileSketch.from_samples([1, 2], sketch_salt({"s": 1}), capacity=16)
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(ValueError):
            a.merge(c)


class TestBatchSketch:
    @given(
        samples=st.lists(
            st.integers(min_value=1, max_value=500), min_size=2, max_size=120
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_summary_matches_exact_in_reservoir_regime(self, samples, seed):
        # Under DEFAULT_RESERVOIR samples the reservoir holds everything, so
        # the sketch summary must equal the exact one field for field.
        assert len(samples) <= DEFAULT_RESERVOIR
        salt = sketch_salt({"seed": seed})
        payload = sketch_from_samples(samples, salt)
        sketched = summary_from_sketch(payload).as_dict()
        exact = summarize(samples).as_dict()
        # std may differ from np.std by an ulp: the sketch derives variance
        # from exact integer sums, numpy from a two-pass float reduction.
        assert sketched.pop("std") == pytest.approx(exact.pop("std"), rel=1e-12)
        assert sketched == exact
        assert whp_from_sketch(payload, 100) == pytest.approx(
            whp_quantile(samples, 100)
        )

    def test_merge_payloads_associative(self):
        rng = np.random.default_rng(5)
        samples = rng.integers(1, 400, size=900).tolist()
        salt = sketch_salt({"seed": 5})
        parts = [
            sketch_from_samples(samples[i::3], salt, start=i, stride=3)
            for i in range(3)
        ]
        forward = merge_sketch_payloads(parts)
        backward = merge_sketch_payloads(list(reversed(parts)))
        whole = sketch_from_samples(samples, salt)
        assert forward == whole
        assert backward == whole

    def test_schema_mismatch_rejected(self):
        payload = sketch_from_samples([1, 2, 3], sketch_salt({"s": 0}))
        payload["schema"] = 999
        with pytest.raises(ValueError):
            BatchSketch.from_dict(payload)


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

"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import (  # noqa: E402
    Sample,
    digest,
    gauge_floor,
    make_schedule,
    percentile,
    run_open_loop,
    sweep_output_ok,
    tail_percentile,
)
from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.self_seconds["leaf"] == pytest.approx(4.0)
    assert tracer.self_seconds["middle"] == pytest.approx(1.5)
    assert tracer.self_seconds["outer"] == pytest.approx(3.0)
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    # Only the outermost span counts toward coverage, inclusively.
    assert tracer.covered_seconds == pytest.approx(8.5)


def test_same_layer_nesting_is_not_double_counted():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap("snapshot", lambda: clock.advance(1.0))

    def outer():
        clock.advance(2.0)
        inner()

    tracer.wrap("snapshot", outer)()
    assert tracer.self_seconds["snapshot"] == pytest.approx(3.0)
    assert tracer.covered_seconds == pytest.approx(3.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fails():
        clock.advance(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("layer", fails)()
    assert tracer.self_seconds["layer"] == pytest.approx(1.0)
    assert tracer.covered_seconds == pytest.approx(1.0)


def test_patch_and_uninstall_restore_originals():
    class Model:
        def step(self):
            return "stepped"

        @staticmethod
        def key(token):
            return f"key-{token}"

    tracer = Tracer(FakeClock())
    originals = (Model.__dict__["step"], Model.__dict__["key"])
    table = {"kernel": len}
    tracer.patch(Model, "step", "model")
    tracer.patch(Model, "key", "key")
    tracer.patch(table, "kernel", "kernel")
    assert Model().step() == "stepped" and Model.key(3) == "key-3"
    assert table["kernel"]("abc") == 3
    assert tracer.calls == {"model": 1, "key": 1, "kernel": 1}
    tracer.uninstall()
    assert (Model.__dict__["step"], Model.__dict__["key"]) == originals
    assert table["kernel"] is len


def test_when_filter_leaves_other_calls_untraced():
    tracer = Tracer(FakeClock())
    traced = tracer.wrap("even", lambda x: x, when=lambda x: x % 2 == 0)
    assert [traced(x) for x in range(5)] == list(range(5))
    assert tracer.calls["even"] == 3


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "count, expected",
    [(2000, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0),
     (39, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_reported_percentile_has_ten_samples_above():
    values = list(range(1, 201))
    p95 = percentile(values, tail_percentile(len(values)))
    assert p95 == 190
    assert sum(1 for v in values if v > p95) == 10
    assert percentile(values, 50) == 100


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
def test_sample_taken_on_a_slow_host_shrinks_to_full_speed():
    # Gauged at 1.5x and 2.5x the full-speed reading: on average twice as slow.
    assert Sample(0.010, 1.5e-3, 2.5e-3).at_full_speed(1e-3) == pytest.approx(0.005)


def test_sample_never_grows_above_what_was_measured():
    assert Sample(0.010, 0.8e-3, 0.9e-3).at_full_speed(1e-3) == pytest.approx(0.010)
    assert Sample(0.010, 1e-3, 1e-3).at_full_speed(1e-3) == pytest.approx(0.010)


def test_gauge_floor_is_a_low_percentile_of_all_readings():
    # 40 readings: 1..20 before, 21..40 after; the 5th percentile is the 2nd lowest.
    samples = [Sample(1.0, float(i), float(i + 20)) for i in range(1, 21)]
    assert gauge_floor(samples) == 2.0


# ---------------------------------------------------------------------- #
# the open loop
# ---------------------------------------------------------------------- #
def test_due_time_latency_counts_the_wait_behind_a_stall():
    clock = FakeClock()
    service = {0: 0.5, 1: 0.01, 2: 0.01}  # request 0 stalls for half a second
    timings = run_open_loop(
        [0.0, 0.1, 1.0], lambda i: clock.advance(service[i]), clock=clock,
        sleep=clock.advance,
    )
    assert [t.due for t in timings] == pytest.approx([0.0, 0.1, 1.0])
    # Request 1 was due at 0.1 but could only be sent at 0.5.
    assert timings[1].lateness == pytest.approx(0.4)
    assert timings[1].latency == pytest.approx(0.41)
    assert timings[1].busy == pytest.approx(0.01)
    # Request 2 is on time again: the generator slept until it was due.
    assert timings[2].lateness == pytest.approx(0.0)
    assert timings[2].latency == pytest.approx(0.01)


def test_work_between_requests_is_untimed_but_delays_a_due_request():
    clock = FakeClock()
    calls = []

    def between():
        calls.append(clock())
        clock.advance(0.2)

    timings = run_open_loop(
        [0.0, 0.1, 1.0], lambda i: clock.advance(0.05), clock=clock,
        sleep=clock.advance, between=between,
    )
    assert calls == pytest.approx([0.05, 0.30, 1.05])
    assert [t.busy for t in timings] == pytest.approx([0.05, 0.05, 0.05])
    # Request 1 was due at 0.1; the work after request 0 held it until 0.25.
    assert timings[1].lateness == pytest.approx(0.15)
    assert timings[2].lateness == pytest.approx(0.0)


def test_schedule_is_deterministic_per_seed():
    counts = {"hit": 21, "revalidate": 6, "cold": 3}
    first = make_schedule(7, counts, pool_size=8, duration=10.0)
    assert first == make_schedule(7, counts, pool_size=8, duration=10.0)
    assert first != make_schedule(8, counts, pool_size=8, duration=10.0)


def test_schedule_has_the_exact_mix_inside_the_duration():
    counts = {"hit": 210, "revalidate": 60, "cold": 30}
    schedule = make_schedule(3, counts, pool_size=8, duration=30.0)
    assert len(schedule) == 300
    kinds = [request.kind for request in schedule]
    assert {kind: kinds.count(kind) for kind in counts} == counts
    offsets = [request.offset for request in schedule]
    assert offsets == sorted(offsets) and 0.0 < offsets[0] and offsets[-1] < 30.0
    assert sorted(r.target for r in schedule if r.kind == "cold") == list(range(30))
    hits = [r.target for r in schedule if r.kind == "hit"]
    assert max(hits.count(i) for i in range(8)) - min(hits.count(i) for i in range(8)) <= 1


def test_benchmark_json_declares_exactly_the_reported_metrics():
    import run

    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    for section, units in (("end_to_end", run.E2E_UNITS), ("per_layer", run.LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in declared[section]} == units


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def _sweep_json(samples, from_cache=False) -> str:
    payload = {
        "family": "edge-meg",
        "nodes": [4, 8],
        "trials": 3,
        "seed": 5,
        "measurements": [
            {"parameter": n, "samples": list(s), "from_cache": from_cache}
            for n, s in zip((4, 8), samples)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_sweep_output_matches_its_pinned_digest():
    cold = _sweep_json([[3, 4, 3], [5, 5, 6]])
    pinned = digest(cold.encode("utf-8"))
    assert sweep_output_ok(cold, pinned)
    # A re-run served from the store differs only in from_cache.
    assert sweep_output_ok(_sweep_json([[3, 4, 3], [5, 5, 6]], from_cache=True), pinned)


def test_perturbed_sweep_output_fails_the_check():
    pinned = digest(_sweep_json([[3, 4, 3], [5, 5, 6]]).encode("utf-8"))
    assert not sweep_output_ok(_sweep_json([[3, 4, 3], [5, 5, 7]]), pinned)
    assert not sweep_output_ok(_sweep_json([[3, 4, 3], [5, 5, 6]]).replace("5", "9", 1), pinned)
    assert not sweep_output_ok("", pinned)
    assert not sweep_output_ok('{"measurements": 3}', pinned)

"""Random-trip leg stores against the per-node refill they replaced.

``RandomTrip`` keeps every agent's leg in the store its sampler's
``leg_store`` returns.  The default store holds positions in one padded
array, refilled by one ``TrajectorySampler.sample_legs`` call per step; the
random waypoint's store holds each leg in closed form and evaluates
positions when they are read.  The references below are a plain
``RandomTrip`` whose sampler implements only ``sample_leg``, one call per
exhausted agent, and a store-free per-agent loop that shares no stepping code
with ``RandomTrip``.  Positions, leg lengths, cursors and the generator state
must match them bit for bit after every step.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, ResultStore, TrialSpec
from repro.mobility.geometry import SquareRegion
from repro.mobility.manhattan import ManhattanSampler, ManhattanWaypoint
from repro.mobility.random_trip import (
    RandomTrip,
    TrajectorySampler,
    row_norms,
    straight_leg,
    straight_legs,
)
from repro.mobility.random_waypoint import RandomWaypoint, WaypointSampler


def reference_straight_leg(start, destination, speed):
    """Per-segment straight leg: ``np.linalg.norm`` distance, one segment."""
    start = np.asarray(start, dtype=float)
    destination = np.asarray(destination, dtype=float)
    displacement = destination - start
    distance = float(np.linalg.norm(displacement))
    if distance == 0.0:
        return destination[None, :].copy()
    steps = int(np.ceil(distance / speed))
    fractions = np.minimum(np.arange(1, steps + 1) * speed / distance, 1.0)
    return start[None, :] + fractions[:, None] * displacement[None, :]


def reference_waypoint_leg(sampler, position, region, rng):
    """One waypoint leg: a ``(1, 2)`` destination draw, then ``uniform`` speed."""
    destination = region.sample_uniform(rng, 1)[0]
    if sampler.v_min == sampler.v_max:
        speed = sampler.v_min
    else:
        speed = rng.uniform(sampler.v_min, sampler.v_max)
    leg = reference_straight_leg(position, destination, speed)
    if sampler.pause_steps:
        pause = np.repeat(destination[None, :], sampler.pause_steps, axis=0)
        leg = np.vstack([leg, pause])
    return leg


def reference_manhattan_leg(sampler, position, region, rng):
    """Manhattan leg with the ``allclose`` corner de-duplication it used to have."""
    destination = region.sample_uniform(rng, 1)[0]
    if rng.random() < 0.5:
        corner = np.array([destination[0], position[1]])
    else:
        corner = np.array([position[0], destination[1]])
    first = reference_straight_leg(position, corner, sampler.speed)
    second = reference_straight_leg(corner, destination, sampler.speed)
    if np.allclose(first[-1], second[0]) and second.shape[0] > 1:
        second = second[1:]
    elif np.allclose(first[-1], second[0]) and second.shape[0] == 1:
        return first
    return np.vstack([first, second])


class LegOnlySampler(TrajectorySampler):
    """One ``leg(position, region, rng)`` call per exhausted agent, on the default store."""

    def __init__(self, leg):
        self.leg = leg

    def sample_leg(self, position, region, rng):
        return self.leg(position, region, rng)


def reference_random_waypoint(
    num_nodes,
    side,
    radius,
    v_min,
    v_max,
    pause_steps=0,
    warmup_steps=0,
    snap_resolution=None,
    library_legs=False,
):
    """Random waypoint as a plain ``RandomTrip`` on the default padded store.

    Its legs come from ``reference_waypoint_leg``, or from
    ``WaypointSampler.sample_leg`` when ``library_legs`` is set.
    """
    waypoint = WaypointSampler(v_min, v_max, pause_steps)
    leg = waypoint.sample_leg if library_legs else partial(reference_waypoint_leg, waypoint)
    return RandomTrip(
        num_nodes,
        side,
        radius,
        LegOnlySampler(leg),
        warmup_steps=warmup_steps,
        snap_resolution=snap_resolution,
    )


def store_free_waypoint(sampler, num_nodes, side, warmup_steps, snap_resolution, rng):
    """Random waypoint stepped agent by agent, with legs as plain lists of points.

    Yields ``(positions, lengths, cursors)`` at time 0 and after every step.
    Time 0 comes after ``warmup_steps`` steps; each agent starts at the end
    of a one-step leg to its (snapped) uniform start.
    """
    region = SquareRegion(side)
    spacing = None if snap_resolution is None else side / snap_resolution

    def snap(point):
        if spacing is None:
            return point
        return (np.clip(np.floor(point / spacing), 0, snap_resolution - 1) + 0.5) * spacing

    positions = [snap(point) for point in region.sample_uniform(rng, num_nodes)]
    legs = [[point] for point in positions]
    cursors = [1] * num_nodes
    time = -warmup_steps
    while True:
        if time >= 0:
            yield np.array(positions).reshape(-1, 2), [len(leg) for leg in legs], list(cursors)
        for agent in range(num_nodes):
            if cursors[agent] >= len(legs[agent]):
                leg = reference_waypoint_leg(sampler, positions[agent], region, rng)
                legs[agent] = list(np.clip(leg, 0.0, side))
                cursors[agent] = 0
            cursors[agent] += 1
            positions[agent] = snap(legs[agent][cursors[agent] - 1])
        time += 1


class ScriptedRNG:
    """Hands out a fixed sequence of doubles the way ``Generator`` would."""

    def __init__(self, doubles):
        self._doubles = list(doubles)

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        values, self._doubles = self._doubles[:count], self._doubles[count:]
        return values[0] if size is None else np.array(values).reshape(size)

    def uniform(self, low, high):
        return low + (high - low) * self.random()


def assert_same_state(model, reference):
    assert np.array_equal(model.positions(), reference.positions())
    assert np.array_equal(model._legs.lengths, reference._legs.lengths)
    assert np.array_equal(model._legs.cursor, reference._legs.cursor)
    assert model._rng.bit_generator.state == reference._rng.bit_generator.state


waypoint_configs = st.fixed_dictionaries(
    {
        "num_nodes": st.integers(1, 60),
        "side": st.floats(1.0, 20.0),
        "v_min": st.floats(0.05, 4.0),
        "spread": st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
        "pause_steps": st.integers(0, 3),
        "warmup_steps": st.integers(0, 40),
        "snap_resolution": st.one_of(st.none(), st.integers(1, 32)),
    }
)


class TestWaypointOracle:
    @settings(max_examples=60)
    @given(
        config=waypoint_configs,
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 30),
        library_legs=st.booleans(),
    )
    def test_positions_buffer_and_stream_match(self, config, seed, steps, library_legs):
        config = dict(config)
        v_min = config.pop("v_min")
        spread = config.pop("spread")
        args = (config.pop("num_nodes"), config.pop("side"), 1.0, v_min, v_min * spread)
        model = RandomWaypoint(*args, **config)
        reference = reference_random_waypoint(*args, **config, library_legs=library_legs)
        model.reset(np.random.default_rng(seed))
        reference.reset(np.random.default_rng(seed))
        assert_same_state(model, reference)
        for _ in range(steps):
            model.step()
            reference.step()
            assert_same_state(model, reference)

    def test_sweep_geometry_with_default_warmup(self):
        # The waypoint sweep's geometry: side 12, radius 1, unit speed.
        model = RandomWaypoint(128, 12.0, 1.0, 1.0)
        reference = reference_random_waypoint(128, 12.0, 1.0, 1.0, 1.0, warmup_steps=26)
        model.reset(np.random.default_rng(73))
        reference.reset(np.random.default_rng(73))
        assert_same_state(model, reference)
        for _ in range(25):
            model.step()
            reference.step()
            assert_same_state(model, reference)

    @settings(max_examples=30)
    @given(config=waypoint_configs, seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30))
    def test_store_free_stepping_matches(self, config, seed, steps):
        v_min, v_max = config["v_min"], config["v_min"] * config["spread"]
        model = RandomWaypoint(
            config["num_nodes"],
            config["side"],
            1.0,
            v_min,
            v_max,
            config["pause_steps"],
            config["warmup_steps"],
            config["snap_resolution"],
        )
        model.reset(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        states = store_free_waypoint(
            WaypointSampler(v_min, v_max, config["pause_steps"]),
            config["num_nodes"],
            config["side"],
            config["warmup_steps"],
            config["snap_resolution"],
            rng,
        )
        for step in range(steps + 1):
            if step:
                model.step()
            positions, lengths, cursors = next(states)
            assert np.array_equal(model.positions(), positions)
            assert model._legs.lengths.tolist() == lengths
            assert model._legs.cursor.tolist() == cursors
            assert model._rng.bit_generator.state == rng.bit_generator.state


class TestWaypointSampler:
    @settings(max_examples=100)
    @given(
        count=st.integers(1, 20),
        v_min=st.floats(0.01, 5.0),
        spread=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
        pause_steps=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_sequential_legs(self, count, v_min, spread, pause_steps, seed):
        sampler = WaypointSampler(v_min, v_min * spread, pause_steps)
        region = SquareRegion(7.0)
        starts = np.random.default_rng(seed + 1).random((count, 2)) * region.side
        batch_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        legs, steps = sampler.sample_legs(starts, region, batch_rng)
        assert legs.shape == (count, steps.max(), 2)
        for row, start in enumerate(starts):
            expected = reference_waypoint_leg(sampler, start, region, loop_rng)
            assert np.array_equal(legs[row, : steps[row]], expected)
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_sample_leg_matches_reference(self):
        sampler = WaypointSampler(0.3, 0.9, pause_steps=2)
        region = SquareRegion(5.0)
        leg = sampler.sample_leg(np.array([1.0, 2.0]), region, np.random.default_rng(3))
        expected = reference_waypoint_leg(
            sampler, np.array([1.0, 2.0]), region, np.random.default_rng(3)
        )
        assert np.array_equal(leg, expected)

    @pytest.mark.parametrize("pause_steps", [0, 2])
    @pytest.mark.parametrize("v_max", [0.5, 1.5])
    def test_zero_distance_leg_holds_exact_destination(self, pause_steps, v_max):
        # Agent 0 already stands on its drawn destination (0.5 L, 0.5 L).
        sampler = WaypointSampler(0.5, v_max, pause_steps)
        region = SquareRegion(4.0)
        starts = np.array([[2.0, 2.0], [0.3, 3.1], [2.0, 2.0]])
        speed_draw = [] if v_max == 0.5 else [0.25]
        doubles = [0.5, 0.5] + speed_draw + [0.9, 0.1] + speed_draw + [0.5, 0.5] + speed_draw
        legs, steps = sampler.sample_legs(starts, region, ScriptedRNG(doubles))
        script = ScriptedRNG(doubles)
        for row, start in enumerate(starts):
            expected = reference_waypoint_leg(sampler, start, region, script)
            assert np.array_equal(legs[row, : steps[row]], expected)
        assert steps[0] == steps[2] == 1 + pause_steps
        assert np.array_equal(legs[0, : steps[0]], np.full((1 + pause_steps, 2), 2.0))


class TestStraightLegs:
    @settings(max_examples=200)
    @given(
        start=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
        destination=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
        speed=st.floats(0.01, 60.0),
    )
    def test_single_segment_matches_reference(self, start, destination, speed):
        assert np.array_equal(
            straight_leg(np.array(start), np.array(destination), speed),
            reference_straight_leg(start, destination, speed),
        )

    def test_rows_are_independent_segments(self):
        rng = np.random.default_rng(11)
        starts = rng.random((50, 2)) * 9.0
        destinations = rng.random((50, 2)) * 9.0
        destinations[7] = starts[7]
        speeds = 0.2 + rng.random(50)
        legs, steps = straight_legs(starts, destinations, speeds, hold_steps=1)
        for row, (start, destination, speed) in enumerate(zip(starts, destinations, speeds)):
            travel = reference_straight_leg(start, destination, speed)
            assert np.array_equal(legs[row, : steps[row] - 1], travel)
            # The held step and the padding sit exactly on the destination.
            assert (legs[row, steps[row] - 1 :] == destination).all()

    def test_row_norms_match_linalg_norm(self):
        rng = np.random.default_rng(2024)
        count = 100_000
        scales = rng.choice([1e-9, 1e-3, 1.0, 12.0, 1e3, 1e6], size=(count, 1))
        vectors = (rng.random((count, 2)) - rng.random((count, 2))) * scales
        expected = np.array([np.linalg.norm(vector) for vector in vectors])
        assert np.array_equal(row_norms(vectors), expected)


class TestCustomSamplerDefault:
    class _Stepper(TrajectorySampler):
        """One-step legs to a uniform point, one draw pair per leg."""

        def sample_leg(self, position, region, rng):
            return region.sample_uniform(rng, 1)

    def test_default_loops_sample_leg(self):
        sampler = self._Stepper()
        region = SquareRegion(3.0)
        starts = np.zeros((4, 2))
        legs, steps = sampler.sample_legs(starts, region, np.random.default_rng(5))
        assert legs.shape == (4, 1, 2)
        assert np.array_equal(steps, np.ones(4))
        assert np.array_equal(legs[:, 0], np.random.default_rng(5).random((4, 2)) * 3.0)

    @pytest.mark.parametrize(
        "bad_leg", [np.zeros((0, 2)), np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 1))]
    )
    def test_bad_output_still_raises(self, bad_leg):
        class BadSampler(TrajectorySampler):
            def sample_leg(self, position, region, rng):
                return bad_leg

        model = RandomTrip(3, side=4.0, radius=1.0, sampler=BadSampler())
        model.reset(0)
        with pytest.raises(ValueError, match=r"shape \(k, 2\) with k >= 1"):
            model.step()
        with pytest.raises(ValueError, match=r"shape \(k, 2\) with k >= 1"):
            BadSampler().sample_legs(np.zeros((2, 2)), SquareRegion(4.0), np.random.default_rng())


class TestManhattanCorner:
    def test_no_step_longer_than_speed_on_large_square(self):
        # Coordinates near 1000 put a whole 0.005 step inside allclose's
        # relative tolerance, where the old de-duplication dropped a step.
        speed = 0.005
        sampler = ManhattanSampler(speed)
        region = SquareRegion(1000.0)
        rng, replay = np.random.default_rng(8), np.random.default_rng(8)
        position = np.array([900.0, 950.0])
        for _ in range(4):
            leg = sampler.sample_leg(position, region, rng)
            destination = region.sample_uniform(replay, 1)[0]
            replay.random()
            moves = np.linalg.norm(np.diff(np.vstack([position, leg]), axis=0), axis=1)
            assert moves.max() <= speed * (1.0 + 1e-9)
            assert np.allclose(leg[-1], destination, rtol=0.0, atol=1e-9)
            position = leg[-1]

    @pytest.mark.parametrize("side,speed", [(5.0, 1.0), (20.0, 0.1), (100.0, 0.7)])
    def test_small_squares_unchanged(self, side, speed):
        sampler = ManhattanSampler(speed)
        region = SquareRegion(side)
        rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        position = np.array([side / 3, side / 2])
        for _ in range(50):
            leg = sampler.sample_leg(position, region, rng)
            expected = reference_manhattan_leg(sampler, position, region, reference_rng)
            assert np.array_equal(leg, expected)
            position = leg[-1]

    def test_axis_aligned_destination_keeps_first_sub_leg(self):
        # Same y coordinate: the vertical sub-leg has zero length.
        sampler = ManhattanSampler(1.0)
        region = SquareRegion(4.0)
        leg = sampler.sample_leg(np.array([0.0, 2.0]), region, ScriptedRNG([0.75, 0.5, 0.2]))
        assert np.array_equal(leg, reference_straight_leg([0.0, 2.0], [3.0, 2.0], 1.0))


class TestSnapAtTimeZero:
    def test_initial_positions_on_grid(self):
        model = RandomWaypoint(4, 4.0, 1.0, 1.0, warmup_steps=0, snap_resolution=4)
        model.reset(0)
        cells = model.positions() / (4.0 / 4) - 0.5
        assert np.array_equal(cells, np.round(cells))

    def test_snapping_draws_nothing(self):
        snapped = RandomWaypoint(6, 4.0, 1.0, 1.0, warmup_steps=0, snap_resolution=3)
        continuous = RandomWaypoint(6, 4.0, 1.0, 1.0, warmup_steps=0)
        snapped.reset(np.random.default_rng(9))
        continuous.reset(np.random.default_rng(9))
        assert snapped._rng.bit_generator.state == continuous._rng.bit_generator.state
        assert np.array_equal(snapped.positions(), snapped._snap(continuous.positions()))


class TestLegStores:
    @pytest.mark.parametrize("steps_before", [0, 1, 7])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RandomWaypoint(30, 8.0, 1.0, 0.6, 1.4, pause_steps=1, snap_resolution=10),
            lambda: RandomWaypoint(30, 8.0, 1.0, 1.0),
            lambda: ManhattanWaypoint(30, 8.0, 1.0, 0.8),
        ],
        ids=["waypoint-snapped", "waypoint", "manhattan"],
    )
    def test_pickled_copy_resumes_identically(self, build, steps_before):
        model = build()
        model.reset(np.random.default_rng(23))
        for _ in range(steps_before):
            model.step()
        copy = pickle.loads(pickle.dumps(model))
        assert_same_state(copy, model)
        for _ in range(20):
            model.step()
            copy.step()
            assert_same_state(copy, model)

    @pytest.mark.parametrize(
        "build",
        [lambda: RandomWaypoint(24, 6.0, 1.0, 1.0), lambda: ManhattanWaypoint(24, 6.0, 1.0, 1.0)],
        ids=["waypoint", "manhattan"],
    )
    def test_wrapped_model_rerun_hits(self, tmp_path, build):
        # Engine.run floods a pickle copy, so the caller's store never moves.
        model = build()
        model.reset(np.random.default_rng(2))
        engine = Engine(store=ResultStore(tmp_path))
        spec = TrialSpec.from_model(model, num_trials=4, seed=5)
        first = engine.run(spec)
        second = engine.run(spec)
        assert not first.from_cache
        assert second.from_cache
        assert second.flooding_times == first.flooding_times

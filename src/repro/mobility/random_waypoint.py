"""The random waypoint mobility model.

The standard random waypoint [7]: ``n`` agents move independently over a
square of side ``L``.  Each agent repeatedly (i) chooses a destination point
uniformly at random in the square and a speed uniformly in
``[v_min, v_max]`` (with ``v_max = Theta(v_min)`` in the paper's analysis),
(ii) travels to the destination along the straight segment at that speed,
and (iii) repeats.  Two agents are connected when their distance is at most
the transmission radius ``r``.

Bounding the flooding time of this model was an open problem before the
paper; Corollary 4 plus the known mixing time ``Theta(L / v_max)`` give

``O( (L / v_max) * (L^2 / (n r^2) + 1)^2 * log^3 n )``

which in the sparse regime ``L ~ sqrt(n)``, ``r = Theta(1)``,
``r = O(v_max)`` becomes ``O(sqrt(n) / v_max * log^3 n)`` — almost matching
the trivial ``Omega(sqrt(n) / v_max)`` lower bound.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.geometry import SquareRegion
from repro.mobility.random_trip import (
    LegStore,
    RandomTrip,
    TrajectorySampler,
    segment_points,
    straight_legs,
    straight_segments,
)
from repro.util.validation import require_positive


class WaypointSampler(TrajectorySampler):
    """Trip sampler of the standard random waypoint (uniform destination)."""

    def __init__(self, v_min: float, v_max: float, pause_steps: int = 0) -> None:
        require_positive(v_min, "v_min")
        require_positive(v_max, "v_max")
        if v_max < v_min:
            raise ValueError(f"v_max ({v_max}) must be >= v_min ({v_min})")
        if pause_steps < 0:
            raise ValueError(f"pause_steps must be >= 0, got {pause_steps}")
        self._v_min = v_min
        self._v_max = v_max
        self._pause_steps = pause_steps

    @property
    def v_min(self) -> float:
        """Minimum speed."""
        return self._v_min

    @property
    def v_max(self) -> float:
        """Maximum speed."""
        return self._v_max

    @property
    def pause_steps(self) -> int:
        """Steps spent paused at each waypoint."""
        return self._pause_steps

    def sample_leg(
        self, position: np.ndarray, region: SquareRegion, rng: np.random.Generator
    ) -> np.ndarray:
        start = np.asarray(position, dtype=float)[None, :]
        legs, _ = straight_legs(start, *self._draw(1, region, rng), self._pause_steps)
        return legs[0]

    def leg_store(self, positions: np.ndarray, region: SquareRegion) -> LegStore:
        return WaypointLegs(self, positions, region)

    def _draw(self, count: int, region: SquareRegion, rng: np.random.Generator) -> tuple:
        """The destinations and speeds of ``count`` legs, in agent order."""
        if self._v_min == self._v_max:
            return region.sample_uniform(rng, count), np.full(count, float(self._v_min))
        # Per agent: x, y, then the speed ``Generator.uniform`` would draw,
        # ``low + (high - low) * u`` from one double.
        draws = rng.random((count, 3))
        low, high = float(self._v_min), float(self._v_max)
        return draws[:, :2] * region.side, low + (high - low) * draws[:, 2]


class WaypointLegs(LegStore):
    """Waypoint legs in closed form: each agent's :func:`straight_segments` fields.

    Positions are evaluated only when read, so a warm-up evaluates only the
    positions where legs run out.
    """

    def __init__(self, sampler: WaypointSampler, positions: np.ndarray, region: SquareRegion):
        super().__init__(sampler, positions, region)
        # A zero-length segment at each position: one step, at its end.
        here = positions.copy()
        self._segments = straight_segments(here, here.copy(), np.ones(len(here)))

    def refill(self, rows: np.ndarray, starts: np.ndarray, rng: np.random.Generator) -> None:
        sampler: WaypointSampler = self._sampler  # type: ignore[assignment]
        segments = straight_segments(starts, *sampler._draw(rows.size, self._region, rng))
        for field, values in zip(self._segments, segments):
            field[rows] = values
        self.lengths[rows] = np.maximum(segments[-1], 1) + sampler.pause_steps
        self.cursor[rows] = 0

    def positions(self, rows: np.ndarray | None = None) -> np.ndarray:
        pick = slice(None) if rows is None else rows
        points = segment_points(tuple(field[pick] for field in self._segments), self.cursor[pick])
        return np.clip(points, 0.0, self._region.side)


class RandomWaypoint(RandomTrip):
    """Random waypoint model over a square, as a dynamic graph.

    Parameters
    ----------
    num_nodes:
        Number of agents ``n``.
    side:
        Side length ``L`` of the square.
    radius:
        Transmission radius ``r``.
    v_min, v_max:
        Speed range; the paper's analysis assumes ``v_max = Theta(v_min)``.
        ``v_max`` defaults to ``v_min`` (constant speed).
    pause_steps:
        Optional number of time steps the agent pauses at each waypoint
        (the classic "pause time"; 0 matches the paper's version).
    warmup_steps:
        Steps simulated before time 0 to approach the stationary regime;
        defaults to ``2 * ceil(L / v_max)``, i.e. about twice the mixing time.
    snap_resolution:
        Optional grid resolution of the Section-4.1 discretisation (``None``
        keeps positions continuous).
    """

    def __init__(
        self,
        num_nodes: int,
        side: float,
        radius: float,
        v_min: float,
        v_max: float | None = None,
        pause_steps: int = 0,
        warmup_steps: int | None = None,
        snap_resolution: int | None = None,
    ) -> None:
        if v_max is None:
            v_max = v_min
        sampler = WaypointSampler(v_min, v_max, pause_steps)
        if warmup_steps is None:
            warmup_steps = 2 * int(math.ceil(side / v_max)) + 2
        super().__init__(
            num_nodes,
            side,
            radius,
            sampler,
            warmup_steps=warmup_steps,
            snap_resolution=snap_resolution,
        )

    @property
    def v_min(self) -> float:
        """Minimum agent speed."""
        return self.sampler.v_min  # type: ignore[attr-defined]

    @property
    def v_max(self) -> float:
        """Maximum agent speed."""
        return self.sampler.v_max  # type: ignore[attr-defined]

    def _cache_params(self) -> dict:
        # Constructor parameters, not pickled state: the key of a wrapped
        # instance survives reset/step and any change to the leg bookkeeping.
        return {
            "side": float(self.region.side),
            "radius": float(self.radius),
            "v_min": float(self.v_min),
            "v_max": float(self.v_max),
            "pause_steps": int(self.sampler.pause_steps),  # type: ignore[attr-defined]
            "warmup_steps": int(self._warmup_steps),
            "snap_resolution": self.snap_resolution,
        }

    def mixing_time_estimate(self) -> float:
        """The paper's ``Theta(L / v_max)`` mixing-time estimate for the model."""
        return self.region.side / self.v_max

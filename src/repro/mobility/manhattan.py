"""The Manhattan-waypoint variant of the random waypoint model.

Clementi, Monti and Silvestri [13] analysed a variant of the random waypoint
in which agents travel to the chosen destination along *Manhattan paths*
(first horizontally, then vertically, or the other way round) instead of the
straight segment.  The paper cites it as the only prior waypoint-style model
with a flooding bound, obtained through an ad-hoc analysis.  Implementing it
lets the experiments compare the straight-line and Manhattan versions under
the same harness.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.geometry import SquareRegion
from repro.mobility.random_trip import RandomTrip, TrajectorySampler, straight_leg
from repro.util.validation import require_positive


class ManhattanSampler(TrajectorySampler):
    """Trip sampler with L-shaped (axis-aligned) legs to a uniform destination."""

    def __init__(self, speed: float) -> None:
        require_positive(speed, "speed")
        self._speed = speed

    @property
    def speed(self) -> float:
        """Constant agent speed."""
        return self._speed

    def sample_leg(
        self, position: np.ndarray, region: SquareRegion, rng: np.random.Generator
    ) -> np.ndarray:
        destination = region.sample_uniform(rng, 1)[0]
        # Travel one axis first (chosen at random), then the other.
        if rng.random() < 0.5:
            corner = np.array([destination[0], position[1]])
        else:
            corner = np.array([position[0], destination[1]])
        first = straight_leg(position, corner, self._speed)
        second = straight_leg(corner, destination, self._speed)
        # ``straight_leg`` never repeats its start, so the corner appears once
        # already; only a zero-length second sub-leg (a lone copy of the
        # destination) is dropped.
        if np.array_equal(corner, destination):
            return first
        return np.vstack([first, second])


class ManhattanWaypoint(RandomTrip):
    """Random waypoint with Manhattan trajectories ([13]'s model)."""

    def __init__(
        self,
        num_nodes: int,
        side: float,
        radius: float,
        speed: float,
        warmup_steps: int | None = None,
    ) -> None:
        sampler = ManhattanSampler(speed)
        if warmup_steps is None:
            warmup_steps = 2 * int(math.ceil(2.0 * side / speed)) + 2
        super().__init__(num_nodes, side, radius, sampler, warmup_steps=warmup_steps)

    @property
    def speed(self) -> float:
        """Constant agent speed."""
        return self.sampler.speed  # type: ignore[attr-defined]

    def _cache_params(self) -> dict:
        # Constructor parameters, not pickled state (see RandomWaypoint).
        return {
            "side": float(self.region.side),
            "radius": float(self.radius),
            "speed": float(self.speed),
            "warmup_steps": int(self._warmup_steps),
        }

    def mixing_time_estimate(self) -> float:
        """Mixing-time estimate ``Theta(L / v)`` (Manhattan legs are <= 2L long)."""
        return 2.0 * self.region.side / self.speed

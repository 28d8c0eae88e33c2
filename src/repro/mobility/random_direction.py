"""The random direction mobility model (another random trip instance).

In the random direction model (surveyed in [7], covered by the random trip
framework of [24]) an agent picks a uniformly random direction and a travel
duration, moves in a straight line at constant speed, reflecting off the
borders of the square, then repeats.  Unlike the waypoint its stationary
positional distribution is (essentially) uniform, so it sits at the opposite
end of the "uniformity" spectrum that Corollary 4's conditions quantify:
``delta ~ 1`` and ``lambda ~ 1``, giving a smaller correlation parameter
``eta`` than the centre-biased waypoint.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.geometry import SquareRegion
from repro.mobility.random_trip import RandomTrip, TrajectorySampler
from repro.util.validation import require_positive


def _reflect(value: float, side: float) -> float:
    """Reflect a coordinate into [0, side] (billiard reflection)."""
    period = 2.0 * side
    value = value % period
    if value < 0:
        value += period
    return value if value <= side else period - value


class RandomDirectionSampler(TrajectorySampler):
    """Trip sampler: uniform direction, fixed speed, random duration, reflecting walls."""

    def __init__(self, speed: float, mean_leg_steps: float = 10.0) -> None:
        require_positive(speed, "speed")
        require_positive(mean_leg_steps, "mean_leg_steps")
        self._speed = speed
        self._mean_leg_steps = mean_leg_steps

    @property
    def speed(self) -> float:
        """Constant agent speed."""
        return self._speed

    @property
    def mean_leg_steps(self) -> float:
        """Mean number of steps per leg (durations are geometric)."""
        return self._mean_leg_steps

    def sample_leg(
        self, position: np.ndarray, region: SquareRegion, rng: np.random.Generator
    ) -> np.ndarray:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        steps = 1 + rng.geometric(1.0 / self._mean_leg_steps)
        direction = np.array([math.cos(angle), math.sin(angle)]) * self._speed
        leg = np.empty((steps, 2))
        current = np.asarray(position, dtype=float).copy()
        for index in range(steps):
            current = current + direction
            leg[index, 0] = _reflect(current[0], region.side)
            leg[index, 1] = _reflect(current[1], region.side)
            # Keep the unreflected coordinate for the next increment so the
            # trajectory continues past the wall before folding back.
        return leg


class RandomDirection(RandomTrip):
    """Random direction model over a square, as a dynamic graph."""

    def __init__(
        self,
        num_nodes: int,
        side: float,
        radius: float,
        speed: float,
        mean_leg_steps: float = 10.0,
        warmup_steps: int | None = None,
        snap_resolution: int | None = None,
    ) -> None:
        sampler = RandomDirectionSampler(speed, mean_leg_steps)
        if warmup_steps is None:
            warmup_steps = 2 * int(math.ceil(side / speed)) + 2
        super().__init__(
            num_nodes,
            side,
            radius,
            sampler,
            warmup_steps=warmup_steps,
            snap_resolution=snap_resolution,
        )

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
            "mean_leg_steps": float(self.sampler.mean_leg_steps),  # type: ignore[attr-defined]
            "warmup_steps": int(self._warmup_steps),
            "snap_resolution": self.snap_resolution,
        }

    def mixing_time_estimate(self) -> float:
        """Order-of-magnitude mixing time ``Theta(L / v)`` (same as the waypoint)."""
        return self.region.side / self.speed

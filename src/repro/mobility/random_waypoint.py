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
from repro.mobility.random_trip import RandomTrip, TrajectorySampler, straight_legs
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
        legs, steps = self.sample_legs(
            np.asarray(position, dtype=float)[None, :], region, rng
        )
        return legs[0, : steps[0]]

    def sample_legs(
        self, starts: np.ndarray, region: SquareRegion, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        count = starts.shape[0]
        if self._v_min == self._v_max:
            destinations = region.sample_uniform(rng, count)
            speeds = np.full(count, float(self._v_min))
        else:
            # Per agent: x, y, then the speed ``Generator.uniform`` would
            # draw, ``low + (high - low) * u`` from one double.
            draws = rng.random((count, 3))
            destinations = draws[:, :2] * region.side
            low, high = float(self._v_min), float(self._v_max)
            speeds = low + (high - low) * draws[:, 2]
        return straight_legs(starts, destinations, speeds, self._pause_steps)


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

    def expected_degree_estimate(self) -> float:
        """Rough stationary expected degree ``(n - 1) * pi r^2 / L^2``.

        This ignores boundary effects and the non-uniform waypoint density,
        but is the right order of magnitude and is useful to decide whether a
        configuration is in the sparse or dense regime.
        """
        n = self.num_nodes
        area = self.region.volume()
        return (n - 1) * math.pi * self.radius**2 / area

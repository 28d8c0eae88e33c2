"""The generic random trip model over a square region.

In the random trip model of Le Boudec and Vojnović [24] every agent
repeatedly samples a *trip* (a trajectory through the mobility space together
with the speed profile along it), travels that trip to its end, then samples
the next trip, independently of all other agents.  The random waypoint and
the Manhattan waypoint are instances obtained by restricting the family of
feasible trips.

The implementation discretises time (one position per time step — the same
discretisation Section 4.1 of the paper uses to turn these continuous models
into node-MEGs): a concrete model supplies :meth:`TrajectorySampler.sample_leg`,
which returns the sequence of positions occupied on one trip, and may supply
:meth:`TrajectorySampler.sample_legs`, which samples the trips of many agents
at once.
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional

import numpy as np

from repro.meg.base import (
    DynamicGraph,
    dense_adjacency_from_pairs,
    sparse_adjacency_from_pairs,
)
from repro.mobility.connection import SnapshotCache
from repro.mobility.geometry import SquareRegion
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_node_count, require_positive


class TrajectorySampler(abc.ABC):
    """Strategy object that samples the trips (legs) of a random trip model.

    :meth:`sample_leg` samples one agent's next leg.  :meth:`RandomTrip.step`
    refills every agent whose leg ran out with a single :meth:`sample_legs`
    call.  Its default loops :meth:`sample_leg` over the agents in order; an
    override may draw the legs in one batch, but it must consume the random
    stream exactly as ``k`` sequential :meth:`sample_leg` calls would and
    return the same legs, so a model's trajectories do not depend on which
    of the two produced them.
    """

    @abc.abstractmethod
    def sample_leg(
        self, position: np.ndarray, region: SquareRegion, rng: np.random.Generator
    ) -> np.ndarray:
        """Return the positions visited on the next trip, one row per time step.

        The returned array must have shape ``(k, 2)`` with ``k >= 1``; the
        first row is the position after the first step of the trip (not the
        current position).
        """

    def sample_legs(
        self, starts: np.ndarray, region: SquareRegion, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the next legs of ``k`` agents, starting at the rows of ``starts``.

        The result is ``(legs, steps)``: ``legs`` has shape ``(k, w, 2)`` and
        row ``i`` holds agent ``i``'s leg in its first ``steps[i]`` positions
        (``1 <= steps[i] <= w``); the positions after those are padding.
        """
        legs = []
        for start in starts:
            leg = np.asarray(self.sample_leg(start, region, rng), dtype=float)
            if leg.ndim != 2 or leg.shape[1] != 2 or leg.shape[0] < 1:
                raise ValueError(
                    "sample_leg must return an array of shape (k, 2) with k >= 1"
                )
            legs.append(leg)
        steps = np.array([leg.shape[0] for leg in legs], dtype=np.intp)
        padded = np.zeros((len(legs), int(steps.max()), 2))
        for row, leg in enumerate(legs):
            padded[row, : leg.shape[0]] = leg
        return padded, steps


class RandomTrip(DynamicGraph):
    """A geometric random trip mobility model over a square.

    Parameters
    ----------
    num_nodes:
        Number of agents.
    side:
        Side length ``L`` of the square mobility region.
    radius:
        Transmission radius ``r``; two agents are connected when their
        Euclidean distance is at most ``r``.
    sampler:
        The trip sampler defining the model (waypoint legs, Manhattan legs…).
    warmup_steps:
        Number of steps run inside :meth:`reset` before time 0, to bring the
        process close to its stationary regime (the paper analyses stationary
        models).  A value around the mixing time ``L / v`` is appropriate.
    snap_resolution:
        Optional grid resolution ``m``.  When set, agent positions are snapped
        to the nearest point of the ``m x m`` discretisation grid at time 0
        and after every move — the node-MEG discretisation of Section 4.1.
        Footnote 3 of the paper states the resolution does not affect the
        flooding bound as long as it is fine enough; the resolution-ablation
        benchmark verifies this by sweeping ``snap_resolution``.
    """

    def __init__(
        self,
        num_nodes: int,
        side: float,
        radius: float,
        sampler: TrajectorySampler,
        warmup_steps: int = 0,
        snap_resolution: Optional[int] = None,
    ) -> None:
        self._num_nodes = require_node_count(num_nodes)
        self._region = SquareRegion(side)
        require_positive(radius, "radius", strict=False)
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
        if snap_resolution is not None and snap_resolution < 1:
            raise ValueError(
                f"snap_resolution must be >= 1 when given, got {snap_resolution}"
            )
        self._snapshot = SnapshotCache(radius)
        self._sampler = sampler
        self._warmup_steps = warmup_steps
        self._snap_resolution = snap_resolution
        self._positions: Optional[np.ndarray] = None
        # Remaining trip of every agent, stored as one padded array so the
        # per-step position update is a single NumPy gather: row ``node``
        # holds that agent's current leg, ``_leg_cursor[node]`` the index of
        # its next position, ``_leg_lengths[node]`` the leg's true length.
        self._leg_buffer: Optional[np.ndarray] = None
        self._leg_lengths: Optional[np.ndarray] = None
        self._leg_cursor: Optional[np.ndarray] = None
        self._rng: Optional[np.random.Generator] = None
        self._time = 0

    # ------------------------------------------------------------------ #
    # model parameters
    # ------------------------------------------------------------------ #
    @property
    def region(self) -> SquareRegion:
        """The square mobility region."""
        return self._region

    @property
    def radius(self) -> float:
        """The transmission radius ``r``."""
        return self._snapshot.rule.radius

    @property
    def sampler(self) -> TrajectorySampler:
        """The trip sampler that defines the model."""
        return self._sampler

    @property
    def snap_resolution(self) -> Optional[int]:
        """Grid resolution used to discretise positions (``None`` = continuous)."""
        return self._snap_resolution

    # ------------------------------------------------------------------ #
    # process
    # ------------------------------------------------------------------ #
    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        self._positions = self._region.sample_uniform(self._rng, self._num_nodes)
        if self._snap_resolution is not None:
            self._positions = self._snap(self._positions)
        self._leg_buffer = np.zeros((self._num_nodes, 1, 2))
        self._leg_lengths = np.zeros(self._num_nodes, dtype=np.intp)
        self._leg_cursor = np.zeros(self._num_nodes, dtype=np.intp)
        self._snapshot.update(self._positions)
        for _ in range(self._warmup_steps):
            self._advance()
        self._time = 0

    def step(self) -> None:
        if self._positions is None:
            raise RuntimeError("call reset() before step()")
        self._advance()
        self._time += 1

    def _advance(self) -> None:
        assert self._positions is not None and self._rng is not None
        buffer = self._leg_buffer
        lengths = self._leg_lengths
        cursor = self._leg_cursor
        assert buffer is not None and lengths is not None and cursor is not None
        # Refill every exhausted leg with one sampler call; the sampler
        # consumes the random stream in node order.
        exhausted = np.nonzero(cursor >= lengths)[0]
        if exhausted.size:
            legs, steps = self._sampler.sample_legs(
                self._positions[exhausted], self._region, self._rng
            )
            width = int(steps.max())
            if width > buffer.shape[1]:
                grown = np.zeros((self._num_nodes, width, 2))
                grown[:, : buffer.shape[1]] = buffer
                buffer = self._leg_buffer = grown
            # Write each leg's own steps only: the rest of its row keeps what
            # it held, so the buffer never depends on the sampler's padding.
            rows, columns = np.nonzero(np.arange(width) < steps[:, None])
            buffer[exhausted[rows], columns] = np.clip(
                legs[rows, columns], 0.0, self._region.side
            )
            lengths[exhausted] = steps
            cursor[exhausted] = 0
        # The whole population advances in one gather.
        self._positions = buffer[np.arange(self._num_nodes), cursor]
        cursor += 1
        if self._snap_resolution is not None:
            self._positions = self._snap(self._positions)
        self._snapshot.update(self._positions)

    def _snap(self, positions: np.ndarray) -> np.ndarray:
        """Snap positions to the centres of the ``m x m`` discretisation cells."""
        m = self._snap_resolution
        assert m is not None
        spacing = self._region.side / m
        cells = np.clip(np.floor(positions / spacing), 0, m - 1)
        return (cells + 0.5) * spacing

    def positions(self) -> np.ndarray:
        """Current positions of all agents, shape ``(n, 2)``."""
        if self._positions is None:
            raise RuntimeError("call reset() before querying positions")
        return self._positions.copy()

    def snapshot_tree(self):
        """k-d tree over the current positions, built once per time step.

        Every neighborhood query, edge enumeration and adjacency build of a
        flooding round reuses this tree instead of rebuilding it per call.
        """
        return self._snapshot.tree()

    def edge_pairs(self) -> np.ndarray:
        """Current snapshot edges as an ``(m, 2)`` index array (cached)."""
        return self._snapshot.pairs()

    def current_edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._snapshot.edges())

    def neighbors_of_set(self, nodes) -> set[int]:
        return self._snapshot.neighbors_of_set(nodes)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency scattered from the k-d tree's edge pairs."""
        return dense_adjacency_from_pairs(self._num_nodes, self.edge_pairs())

    def sparse_adjacency(self):
        return sparse_adjacency_from_pairs(self._num_nodes, self.edge_pairs())

    def edge_count(self) -> int:
        return int(self.edge_pairs().shape[0])

    def expected_degree_estimate(self) -> float:
        """Rough stationary expected degree ``(n - 1) * pi r^2 / L^2``.

        Ignores boundary effects and any non-uniformity of the stationary
        positional density, but gives the right order of magnitude — enough
        to decide whether a configuration is in the sparse or dense regime
        (the engine's ``backend="auto"`` heuristic consumes it).
        """
        area = self._region.volume()
        return (self._num_nodes - 1) * np.pi * self.radius**2 / area


def straight_leg(
    start: np.ndarray, destination: np.ndarray, speed: float
) -> np.ndarray:
    """Positions along the straight segment ``start -> destination``.

    The agent covers ``speed`` distance units per time step and the final
    position is the destination (the last step may be shorter).  This is the
    one-segment case of :func:`straight_legs`.
    """
    require_positive(speed, "speed")
    legs, _ = straight_legs(
        np.asarray(start, dtype=float)[None, :],
        np.asarray(destination, dtype=float)[None, :],
        np.array([speed], dtype=float),
    )
    return legs[0]


def straight_legs(
    starts: np.ndarray,
    destinations: np.ndarray,
    speeds: np.ndarray,
    hold_steps: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions along ``k`` straight segments at once, padded to one width.

    Row ``i`` travels ``starts[i] -> destinations[i]`` at ``speeds[i]`` per
    step: position ``j`` (0-based) is ``start + min((j + 1) * speed /
    distance, 1) * displacement``, for ``ceil(distance / speed)`` steps (one
    step, at the destination, when the two points coincide).  It then stays
    exactly at the destination for ``hold_steps`` more steps.  Returns
    ``(legs, steps)`` as :meth:`TrajectorySampler.sample_legs` does, with the
    padding also at the destination.
    """
    displacement = destinations - starts
    distance = row_norms(displacement)
    moving = distance > 0.0
    travel = np.zeros(distance.shape[0], dtype=np.intp)
    travel[moving] = np.ceil(distance[moving] / speeds[moving])
    steps = np.maximum(travel, 1) + hold_steps
    width = int(steps.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = np.minimum(
            np.arange(1, width + 1) * speeds[:, None] / distance[:, None], 1.0
        )
    legs = starts[:, None, :] + fractions[:, :, None] * displacement[:, None, :]
    arrived = np.arange(width) >= travel[:, None]
    legs[arrived] = np.broadcast_to(destinations[:, None, :], legs.shape)[arrived]
    return legs, steps


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a ``(k, d)`` array.

    Each value equals ``np.linalg.norm`` of that row bit for bit: both take
    the square root of the row's BLAS dot product, which may round like a
    fused multiply-add.  ``np.sqrt((vectors ** 2).sum(1))`` and ``np.hypot``
    round differently on a sizeable share of rows.
    """
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None]).ravel())

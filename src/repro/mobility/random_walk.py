"""The random walk mobility model on an ``m x m`` grid.

The representative geometric model of the paper's introduction: ``n`` agents
live on the points of an ``m x m`` grid; at every time step each agent
independently moves to a point chosen uniformly at random among the grid
neighbours of its current point (optionally staying put with a holding
probability — the lazy walk — which keeps the per-agent chain aperiodic).
Two agents are connected when their Euclidean distance is at most the
transmission radius ``r``.

Prior work obtained almost tight flooding bounds for this model with ad-hoc
techniques relying on the near-uniform stationary positional distribution;
here it serves both as a well-understood sanity check of the simulator and as
the ``rho = 1`` special case of the graph random walk of Corollary 6.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.meg.base import DynamicGraph, dense_adjacency_from_pairs
from repro.mobility.connection import SnapshotCache
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_node_count, require_positive, require_probability

# Candidate moves of a grid step, in the order the per-node loop historically
# filtered them (right, left, up, down); the vectorized step must keep this
# order to draw the same move indices from the same random stream.
_MOVES = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])


class RandomWalkMobility(DynamicGraph):
    """Independent lazy random walks of ``n`` agents on an ``m x m`` grid.

    Parameters
    ----------
    num_nodes:
        Number of agents ``n``.
    grid_side:
        Number of grid points per dimension ``m`` (the grid has ``m**2``
        points).
    radius:
        Transmission radius ``r`` in the same units as ``spacing``.
    spacing:
        Physical distance between adjacent grid points; the physical side of
        the region is ``(m - 1) * spacing``.  Defaults to 1.
    holding_probability:
        Probability of staying put at each step (lazy walk); 0 recovers the
        plain walk of the paper's description.
    stationary_start:
        When true (default) the initial positions are sampled from the
        stationary distribution of the lazy walk, which is proportional to
        the degree of the grid point (4 in the interior, 3 on edges, 2 at
        corners); when false they are uniform over grid points.
    """

    def __init__(
        self,
        num_nodes: int,
        grid_side: int,
        radius: float,
        spacing: float = 1.0,
        holding_probability: float = 0.0,
        stationary_start: bool = True,
    ) -> None:
        self._num_nodes = require_node_count(num_nodes)
        if grid_side < 2:
            raise ValueError(f"grid_side must be >= 2, got {grid_side}")
        require_positive(radius, "radius", strict=False)
        require_positive(spacing, "spacing")
        require_probability(holding_probability, "holding_probability")
        if holding_probability == 1.0:
            raise ValueError("holding_probability must be < 1 (agents would freeze)")
        self._grid_side = grid_side
        self._spacing = spacing
        self._holding_probability = holding_probability
        self._stationary_start = stationary_start
        self._snapshot = SnapshotCache(radius)
        self._coords: Optional[np.ndarray] = None  # shape (n, 2), integer grid coords
        self._rng: Optional[np.random.Generator] = None
        self._time = 0

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    @property
    def grid_side(self) -> int:
        """Number of grid points per dimension ``m``."""
        return self._grid_side

    @property
    def radius(self) -> float:
        """Transmission radius ``r``."""
        return self._snapshot.rule.radius

    @property
    def spacing(self) -> float:
        """Physical distance between adjacent grid points."""
        return self._spacing

    @property
    def side_length(self) -> float:
        """Physical side length of the mobility region."""
        return (self._grid_side - 1) * self._spacing

    def _degree(self, coord: np.ndarray) -> np.ndarray:
        """Grid degree (2, 3 or 4) of each coordinate row."""
        m = self._grid_side
        on_border_x = (coord[:, 0] == 0) | (coord[:, 0] == m - 1)
        on_border_y = (coord[:, 1] == 0) | (coord[:, 1] == m - 1)
        return 4 - on_border_x.astype(int) - on_border_y.astype(int)

    # ------------------------------------------------------------------ #
    # process
    # ------------------------------------------------------------------ #
    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        m = self._grid_side
        if self._stationary_start:
            # Stationary distribution of a walk on a graph is proportional to
            # the degree; build it over all m*m points once.
            cols, rows = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
            coords = np.column_stack([cols.ravel(), rows.ravel()])
            degrees = self._degree(coords).astype(float)
            probabilities = degrees / degrees.sum()
            chosen = self._rng.choice(coords.shape[0], size=self._num_nodes, p=probabilities)
            self._coords = coords[chosen].copy()
        else:
            self._coords = self._rng.integers(0, m, size=(self._num_nodes, 2))
        self._move_snapshot()

    def step(self) -> None:
        if self._coords is None or self._rng is None:
            raise RuntimeError("call reset() before step()")
        if self._holding_probability:
            self._step_with_holding()
        else:
            self._step_vectorized()
        self._move_snapshot()
        self._time += 1

    def _step_vectorized(self) -> None:
        # Whole-population step in a handful of array ops.  NumPy draws
        # broadcast bounded integers element by element from the same stream
        # as repeated scalar draws, so the trajectories are bit-identical to
        # the historical per-node loop.
        m = self._grid_side
        coords = self._coords
        valid = np.column_stack(
            [
                coords[:, 0] + 1 < m,
                coords[:, 0] - 1 >= 0,
                coords[:, 1] + 1 < m,
                coords[:, 1] - 1 >= 0,
            ]
        )
        draws = self._rng.integers(0, valid.sum(axis=1))
        # Index of the (draws+1)-th valid move of every row.
        move_index = np.argmax(valid.cumsum(axis=1) > draws[:, None], axis=1)
        self._coords = coords + _MOVES[move_index]

    def _step_with_holding(self) -> None:
        # The lazy walk interleaves one uniform draw (hold or not) with the
        # move draw per node, so a vectorized version would consume the
        # random stream in a different order; keep the loop for exactness.
        m = self._grid_side
        coords = self._coords
        for node in range(self._num_nodes):
            if self._rng.random() < self._holding_probability:
                continue
            candidates = coords[node] + _MOVES
            valid = candidates[
                (candidates[:, 0] >= 0)
                & (candidates[:, 0] < m)
                & (candidates[:, 1] >= 0)
                & (candidates[:, 1] < m)
            ]
            coords[node] = valid[self._rng.integers(valid.shape[0])]

    def _move_snapshot(self) -> None:
        self._snapshot.update(self._coords.astype(float) * self._spacing)

    def positions(self) -> np.ndarray:
        """Current physical positions (grid coordinates times spacing)."""
        if self._coords is None:
            raise RuntimeError("call reset() before querying positions")
        return self._snapshot.positions.copy()

    def grid_coordinates(self) -> np.ndarray:
        """Current integer grid coordinates of every agent."""
        if self._coords is None:
            raise RuntimeError("call reset() before querying positions")
        return self._coords.copy()

    def snapshot_tree(self):
        """k-d tree over the current positions, built once per time step."""
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

    def edge_count(self) -> int:
        return int(self.edge_pairs().shape[0])

    def expected_degree_estimate(self) -> float:
        """Rough stationary expected degree ``(n - 1) * pi r^2 / area``."""
        area = max(self.side_length, self._spacing) ** 2
        return (self._num_nodes - 1) * np.pi * self.radius**2 / area

    def mixing_time_estimate(self) -> float:
        """Order-of-magnitude mixing time ``Theta(m**2)`` of a walk on the grid."""
        return float(self._grid_side**2)

"""Geometric connection rules (unit-disk / transmission-radius graphs).

At every time step of a geometric mobility model, two agents are connected
exactly when their Euclidean distance is at most the transmission radius
``r``.  These helpers turn an array of agent positions into the corresponding
snapshot edge set with :class:`scipy.spatial.cKDTree`: ``query_pairs`` for
the edge set and ``query_ball_point`` for the neighbourhood of a set of
agents.  The tree is the one neighbour search; a vectorized cell list with
identical pair sets was measured 4-8x slower at 128-1,024 agents.

Every query accepts an optional prebuilt tree.  :class:`SnapshotCache` is
where a mobility model keeps the tree of its current snapshot, so every
neighbourhood query, edge enumeration and adjacency build of one time step
shares one tree, one pair array and one edge list.  SciPy's spatial module
loads with the first tree, so importing this module costs no SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Set

import numpy as np

from repro.util.validation import require_positive

if TYPE_CHECKING:
    from scipy.spatial import cKDTree


def _build_tree(points: np.ndarray) -> cKDTree:
    """A ``cKDTree`` over ``points`` (the first call loads ``scipy.spatial``)."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def radius_pairs(
    positions: np.ndarray, radius: float, tree: Optional[cKDTree] = None
) -> np.ndarray:
    """``(m, 2)`` array of pairs ``i < j`` with ``||pos_i - pos_j|| <= radius``.

    ``radius == 0`` still connects exactly coincident points.  Pass ``tree``
    (a ``cKDTree`` built over ``positions``) to reuse a cached tree.
    """
    require_positive(radius, "radius", strict=False)
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"positions must be a 2-D array, got shape {pts.shape}")
    if pts.shape[0] < 2:
        return np.empty((0, 2), dtype=np.intp)
    if tree is None:
        tree = _build_tree(pts)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    return pairs.astype(np.intp, copy=False)


def radius_edges(
    positions: np.ndarray, radius: float, tree: Optional[cKDTree] = None
) -> list[tuple[int, int]]:
    """All pairs ``(i, j)``, ``i < j``, with ``||pos_i - pos_j|| <= radius``."""
    pairs = radius_pairs(positions, radius, tree=tree)
    return [(int(i), int(j)) for i, j in pairs]


def neighbors_within_radius(
    positions: np.ndarray,
    sources: Iterable[int],
    radius: float,
    tree: Optional[cKDTree] = None,
) -> Set[int]:
    """Indices of all agents within ``radius`` of at least one source agent.

    The result never contains a source index, even when another source lies
    within range of it.
    """
    require_positive(radius, "radius", strict=False)
    pts = np.asarray(positions, dtype=float)
    source_list = sorted(set(int(s) for s in sources))
    if not source_list:
        return set()
    source_array = np.asarray(source_list, dtype=int)
    if source_array.min() < 0 or source_array.max() >= pts.shape[0]:
        bad = source_array[(source_array < 0) | (source_array >= pts.shape[0])][0]
        raise ValueError(f"source index {bad} out of range")
    if tree is None:
        tree = _build_tree(pts)
    reached = set()
    neighbor_lists = tree.query_ball_point(pts[source_array], r=radius)
    for neighbors in neighbor_lists:
        reached.update(int(v) for v in neighbors)
    return reached - set(source_list)


@dataclass(frozen=True)
class UnitDiskConnection:
    """The standard geometric connection rule: connected iff distance <= radius."""

    radius: float

    def __post_init__(self) -> None:
        require_positive(self.radius, "radius", strict=False)

    def edges(
        self, positions: np.ndarray, tree: Optional[cKDTree] = None
    ) -> list[tuple[int, int]]:
        """Snapshot edge set induced by agent positions."""
        return radius_edges(positions, self.radius, tree=tree)

    def edge_pairs(
        self, positions: np.ndarray, tree: Optional[cKDTree] = None
    ) -> np.ndarray:
        """Snapshot edge set as an ``(m, 2)`` index array."""
        return radius_pairs(positions, self.radius, tree=tree)

    def are_connected(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether two individual positions are within the radius."""
        return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= self.radius

    def neighbors_of_set(
        self,
        positions: np.ndarray,
        sources: Iterable[int],
        tree: Optional[cKDTree] = None,
    ) -> Set[int]:
        """Agents within the radius of at least one source agent."""
        return neighbors_within_radius(positions, sources, self.radius, tree=tree)


class SnapshotCache:
    """One unit-disk snapshot: its tree, pair array and edge list, built lazily.

    A mobility model owns one cache and hands it the agents' new positions
    after every move (:meth:`update`); each derived view is then built at
    most once per time step, however many queries the step serves.
    """

    def __init__(self, radius: float) -> None:
        self.rule = UnitDiskConnection(radius)
        self.positions: Optional[np.ndarray] = None
        self._tree: Optional[cKDTree] = None
        self._pairs: Optional[np.ndarray] = None
        self._edges: Optional[list[tuple[int, int]]] = None

    def update(self, positions: np.ndarray) -> None:
        """Start a new snapshot at ``positions``, dropping every cached view."""
        self.positions = positions
        self._tree = None
        self._pairs = None
        self._edges = None

    def _current(self) -> np.ndarray:
        if self.positions is None:
            raise RuntimeError("call reset() before querying the snapshot")
        return self.positions

    def tree(self) -> cKDTree:
        """k-d tree over the current positions."""
        if self._tree is None:
            self._tree = _build_tree(self._current())
        return self._tree

    def pairs(self) -> np.ndarray:
        """Current edges as an ``(m, 2)`` index array (read-only)."""
        if self._pairs is None:
            self._pairs = self.rule.edge_pairs(self._current(), tree=self.tree())
        return self._pairs

    def edges(self) -> list[tuple[int, int]]:
        """Current edges as a list of ``(i, j)`` tuples, ``i < j``."""
        if self._edges is None:
            self._edges = [(int(i), int(j)) for i, j in self.pairs()]
        return self._edges

    def neighbors_of_set(self, nodes) -> set[int]:
        """Agents within the radius of at least one agent in ``nodes``."""
        positions = self._current()
        if not nodes:
            return set()
        return self.rule.neighbors_of_set(positions, nodes, tree=self.tree())

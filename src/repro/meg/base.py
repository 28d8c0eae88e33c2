"""The dynamic-graph simulation interface.

Every model in the library — edge-MEGs, node-MEGs, mobility models — exposes
the same minimal interface so that the flooding/gossip simulators and the
stationarity estimators in :mod:`repro.core` work uniformly:

* ``num_nodes`` — the number of nodes ``n`` (nodes are always ``0..n-1``);
* ``reset(rng)`` — draw the initial snapshot ``G_0`` (stationary models start
  from their stationary distribution, matching the paper's "stationary MEG"
  setting) and fix the randomness of the run;
* ``step()`` — advance the process by one time step;
* ``current_edges()`` — the edge set of the current snapshot;
* ``edge_pairs()`` — the same edges as an ``(m, 2)`` index array, the one
  form the dense and sparse adjacency views derive from (models holding
  their snapshot as arrays override it; :class:`PairIndexedGraph` and
  :class:`StateInducedGraph` derive every view for the two array-backed
  snapshot shapes);
* ``neighbors_of_set(nodes)`` — all nodes adjacent to a given set in the
  current snapshot (the only query flooding needs; models may override it
  with something faster than scanning every edge).
"""

from __future__ import annotations

import abc
import hashlib
import pickle
from typing import TYPE_CHECKING, Iterator, Optional, Set

import numpy as np

from repro.util.rng import RNGLike

if TYPE_CHECKING:
    import networkx as nx
    import scipy.sparse


class DynamicGraph(abc.ABC):
    """Abstract base class of all dynamic-graph processes.

    Subclasses must set ``self._num_nodes`` (or override :attr:`num_nodes`)
    and implement :meth:`reset`, :meth:`step` and :meth:`current_edges`.
    """

    _num_nodes: int
    _time: int = 0

    # ------------------------------------------------------------------ #
    # core interface
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes of the dynamic graph."""
        return self._num_nodes

    @property
    def time(self) -> int:
        """Index ``t`` of the current snapshot (0 right after :meth:`reset`)."""
        return self._time

    @abc.abstractmethod
    def reset(self, rng: RNGLike = None) -> None:
        """(Re-)initialise the process, drawing the snapshot at time 0."""

    @abc.abstractmethod
    def step(self) -> None:
        """Advance the process by one time step (produce the next snapshot)."""

    @abc.abstractmethod
    def current_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over the edges ``(i, j)`` (i < j) of the current snapshot."""

    # ------------------------------------------------------------------ #
    # derived helpers (overridable for efficiency)
    # ------------------------------------------------------------------ #
    def neighbors_of_set(self, nodes: Set[int]) -> set[int]:
        """All nodes adjacent, in the current snapshot, to some node in ``nodes``.

        The returned set may include members of ``nodes`` itself; flooding
        callers union it with the informed set anyway.
        """
        reached: set[int] = set()
        for i, j in self.current_edges():
            if i in nodes:
                reached.add(j)
            if j in nodes:
                reached.add(i)
        return reached

    def edge_pairs(self) -> np.ndarray:
        """Edges ``(i, j)`` (i < j) of the current snapshot as an ``(m, 2)`` array.

        The snapshot form the default :meth:`adjacency_matrix` and
        :meth:`sparse_adjacency` build from, so both cost ``O(m)`` rather
        than ``O(n^2)``.  The generic implementation collects
        :meth:`current_edges`; models that hold their snapshot as arrays
        should override it (callers must treat the result as read-only).
        """
        edges = list(self.current_edges())
        return np.asarray(edges, dtype=np.intp).reshape(len(edges), 2)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix of the current snapshot.

        The vectorized flooding kernel of :mod:`repro.engine` uses this to
        advance whole informed-vectors with NumPy instead of per-edge Python
        loops.  The generic implementation scatters :meth:`edge_pairs`;
        models with a fast array snapshot should override it (the engine
        only auto-selects the vectorized kernel for models that do).
        """
        return dense_adjacency_from_pairs(self.num_nodes, self.edge_pairs())

    def reach_mask(self, informed: np.ndarray) -> np.ndarray:
        """Mask of nodes adjacent, in the current snapshot, to an informed node.

        The boolean-mask form of :meth:`neighbors_of_set`, consumed by the
        vectorized flooding kernel.  The result may include members of
        ``informed`` itself; flooding callers union it with the informed mask
        anyway.  The default reduces the adjacency rows of the informed
        nodes; :class:`StateInducedGraph` (node-MEGs, the graph mobility
        models) overrides it with a class-level update that never
        materialises the ``n x n`` matrix.
        """
        return self.adjacency_matrix()[np.asarray(informed, dtype=bool)].any(axis=0)

    def reach_mask_batch(self, informed: np.ndarray) -> np.ndarray:
        """Column-wise :meth:`reach_mask` over an ``n x B`` informed matrix.

        Column ``b`` of the result is ``reach_mask(informed[:, b])`` — the
        one-round update of ``B`` floods sharing this snapshot.  The generic
        implementation multiplies the dense adjacency (the batched kernel in
        :mod:`repro.engine.kernel` hoists its own scratch buffers instead of
        calling this); :class:`StateInducedGraph` overrides it with a
        class-level update that never touches the ``n x n`` matrix.
        """
        informed = np.asarray(informed, dtype=bool)
        accumulator = np.float32 if self.num_nodes < 2**24 else np.intp
        matrix = self.adjacency_matrix().astype(accumulator)
        return (matrix @ informed.astype(accumulator)) != 0

    def trial_batch(self, count: int):
        """Optional batched-trial runner for ``count`` independent trials.

        :func:`repro.engine.batch.flood_trials_batch` floods many seeds of
        one model family in a single tensor pass when the model provides a
        runner here — an object advancing all ``count`` realizations at once
        while consuming each trial's random stream exactly as ``count``
        sequential resets/steps would (so the batched results are
        bit-identical to per-trial runs).  The default returns ``None``:
        families without a runner are flooded one trial at a time.
        """
        del count
        return None

    def sparse_adjacency(self) -> scipy.sparse.csr_matrix:
        """CSR adjacency of the current snapshot (nonzero entry = edge).

        The sparse flooding kernel of :mod:`repro.engine` advances informed
        vectors with a sparse matvec, which beats the dense kernel on large,
        sparse snapshots (cost ``O(m)`` per step instead of ``O(n^2)``).  It
        is built from :meth:`edge_pairs`; callers must treat the returned
        matrix as read-only.
        """
        return sparse_adjacency_from_pairs(self.num_nodes, self.edge_pairs())

    def cache_token(self) -> dict:
        """Stable description of the model used to key cached results.

        The :class:`repro.engine.ResultStore` hashes this token (together
        with the trial parameters and seed) to decide whether a batch of
        trials has already been computed.  The default token digests the
        pickled model, which is collision-safe but changes whenever the
        model's internal state does; models with a small parameter set
        should override :meth:`_cache_params` with their constructor
        arguments to get stable, state-independent keys.
        """
        token = {
            "class": f"{type(self).__module__}.{type(self).__qualname__}",
            "num_nodes": self.num_nodes,
        }
        token.update(self._cache_params())
        return token

    def _cache_params(self) -> dict:
        try:
            payload = pickle.dumps(self)
        except Exception:  # unpicklable models never share a cache entry
            return {"unpicklable_id": id(self)}
        return {"state_digest": hashlib.sha256(payload).hexdigest()}

    def snapshot(self) -> nx.Graph:
        """The current snapshot as a :class:`networkx.Graph` on ``0..n-1``."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(self.current_edges())
        return graph

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the current snapshot contains the edge ``{i, j}``."""
        self._validate_node(i)
        self._validate_node(j)
        if i == j:
            return False
        target = (min(i, j), max(i, j))
        return any((min(a, b), max(a, b)) == target for a, b in self.current_edges())

    def degree(self, node: int) -> int:
        """Degree of ``node`` in the current snapshot."""
        self._validate_node(node)
        return sum(1 for a, b in self.current_edges() if a == node or b == node)

    def edge_count(self) -> int:
        """Number of edges in the current snapshot."""
        return int(self.edge_pairs().shape[0])

    def run(self, steps: int) -> None:
        """Advance the process by ``steps`` time steps."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()

    def _validate_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range for a graph on {self.num_nodes} nodes"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_nodes={self.num_nodes})"


def overrides(model: DynamicGraph, hook: str) -> bool:
    """Whether ``model``'s class replaces the :class:`DynamicGraph` default ``hook``.

    The engine picks kernels by which snapshot hooks a model implements
    natively (``edge_pairs``, ``adjacency_matrix``, ``reach_mask``,
    ``reach_mask_batch``, ``sparse_adjacency``, ``trial_batch``).  Both
    attributes are looked up at call time, so a wrapper installed on the base
    class still reads as "not overridden".
    """
    return getattr(type(model), hook) is not getattr(DynamicGraph, hook)


class StaticGraphProcess(DynamicGraph):
    """A dynamic graph whose snapshot never changes.

    Useful as a degenerate baseline (flooding then completes in exactly the
    eccentricity of the source) and in unit tests of the flooding machinery.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("the static graph must have at least one node")
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            raise ValueError("the static graph must be labelled 0..n-1")
        self._num_nodes = graph.number_of_nodes()
        self._edges = tuple(
            (min(a, b), max(a, b)) for a, b in graph.edges() if a != b
        )
        self._adjacency: dict[int, set[int]] = {i: set() for i in range(self._num_nodes)}
        for a, b in self._edges:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._time = 0

    def reset(self, rng: RNGLike = None) -> None:
        del rng  # the process is deterministic
        self._time = 0

    def step(self) -> None:
        self._time += 1

    def current_edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._edges)

    def neighbors_of_set(self, nodes: Set[int]) -> set[int]:
        reached: set[int] = set()
        for node in nodes:
            reached |= self._adjacency[node]
        return reached


class PairIndexedGraph(DynamicGraph):
    """A dynamic graph with one state per unordered node pair (the edge-MEGs).

    Pairs are numbered in ``np.triu_indices(n, 1)`` order, the ``i < j``
    row-major order of :func:`all_pairs`, so one ``rng.random(num_pairs)``
    draw consumes the stream exactly as a per-pair loop would.  Subclasses
    call :meth:`_set_active` with the sorted indices of the present pairs
    whenever the snapshot changes; every snapshot query derives from the
    cached :meth:`edge_pairs`, so it costs ``O(m)`` in the present edges
    rather than ``O(n^2)`` in the pairs.
    """

    def _index_pairs(self, num_nodes: int) -> None:
        self._pairs = np.stack(np.triu_indices(num_nodes, 1), axis=1)
        self._active: Optional[np.ndarray] = None
        self._pairs_cache: Optional[np.ndarray] = None

    @property
    def num_pairs(self) -> int:
        """Number of node pairs ``n (n - 1) / 2``."""
        return self._pairs.shape[0]

    def _set_active(self, active: np.ndarray) -> None:
        self._active = active
        self._pairs_cache = None

    def edge_pairs(self) -> np.ndarray:
        if self._active is None:
            raise RuntimeError("call reset() before querying the snapshot")
        if self._pairs_cache is None:
            self._pairs_cache = self._pairs.take(self._active, axis=0)
        return self._pairs_cache

    def current_edges(self) -> Iterator[tuple[int, int]]:
        pairs = self.edge_pairs()
        return zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())

    def neighbors_of_set(self, nodes: Set[int]) -> set[int]:
        pairs = self.edge_pairs()
        if not nodes or pairs.size == 0:
            return set()
        node_array = np.fromiter(nodes, dtype=int)
        from_i = np.isin(pairs[:, 0], node_array)
        from_j = np.isin(pairs[:, 1], node_array)
        return set(pairs[from_i, 1].tolist()) | set(pairs[from_j, 0].tolist())


class StateInducedGraph(DynamicGraph):
    """A dynamic graph whose edges are induced by one class per node.

    Distinct nodes ``u`` and ``v`` are adjacent exactly when
    ``relation[c(u), c(v)]`` holds, for a symmetric boolean ``k x k``
    relation over the classes.  This is the paper's node-MEG ``NM(n, M, C)``
    (the class is the node's state and the relation is ``C``) and, with the
    state mapped to a point and the relation a hop ball, the random-path and
    random-walk models of Section 4.1.  Subclasses supply the two hooks
    :meth:`_node_classes` and :meth:`_class_relation`; every snapshot view
    derives from them here.  The reach updates work at class level and never
    materialise the ``n x n`` adjacency.
    """

    @abc.abstractmethod
    def _node_classes(self) -> np.ndarray:
        """Class index of every node (raises before :meth:`reset`)."""

    @abc.abstractmethod
    def _class_relation(self) -> np.ndarray:
        """The symmetric boolean ``k x k`` relation over the classes."""

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency: the relation gathered at the node classes."""
        classes = self._node_classes()
        matrix = self._class_relation()[np.ix_(classes, classes)]
        np.fill_diagonal(matrix, False)
        return matrix

    def edge_pairs(self) -> np.ndarray:
        pairs = np.argwhere(self.adjacency_matrix())
        return pairs[pairs[:, 0] < pairs[:, 1]]

    def current_edges(self) -> Iterator[tuple[int, int]]:
        pairs = self.edge_pairs()
        return zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())

    def neighbors_of_set(self, nodes: Set[int]) -> set[int]:
        classes = self._node_classes()
        if not nodes:
            return set()
        node_array = np.fromiter(nodes, dtype=np.intp)
        rows = self._class_relation()[np.ix_(classes[node_array], classes)]
        rows[np.arange(node_array.size), node_array] = False
        return set(np.flatnonzero(rows.any(axis=0)).tolist())

    def reach_mask(self, informed: np.ndarray) -> np.ndarray:
        """Class-level flooding update, ``O(n + k * |informed classes|)``.

        A node is reached when its class relates to the class of some
        informed node.  Informed nodes may appear in the result; flooding
        unions them anyway, so the self-edge exclusion is immaterial.
        """
        classes = self._node_classes()
        informed = np.asarray(informed, dtype=bool)
        return self._class_relation()[classes[informed]].any(axis=0)[classes]

    def reach_mask_batch(self, informed: np.ndarray) -> np.ndarray:
        """Class-level batched update over an ``n x B`` informed matrix.

        Column for column the booleans of :meth:`reach_mask`: informed nodes
        are scattered into a ``k x B`` class-occupancy table, the relation
        marks the related classes, and the result is gathered back at the
        node classes — ``O(nB + k^2 B)`` instead of ``O(n^2 B)``.
        """
        classes = self._node_classes()
        relation = self._class_relation()
        informed = np.asarray(informed, dtype=bool)
        k = relation.shape[0]
        occupied = np.zeros((k, informed.shape[1]), dtype=bool)
        nodes, columns = np.nonzero(informed)
        occupied[classes[nodes], columns] = True
        # Exact: the float32 product counts informed related classes (integers
        # well below 2**24); a nonzero count means reached.
        accumulator = np.float32 if k < 2**24 else np.intp
        connected = (relation.astype(accumulator) @ occupied.astype(accumulator)) != 0
        return connected[classes, :]


def dense_adjacency_from_pairs(num_nodes: int, pairs: np.ndarray) -> np.ndarray:
    """Symmetric dense boolean adjacency from an ``(m, 2)`` edge array."""
    matrix = np.zeros((num_nodes, num_nodes), dtype=bool)
    pairs = np.asarray(pairs)
    if pairs.size:
        matrix[pairs[:, 0], pairs[:, 1]] = True
        matrix[pairs[:, 1], pairs[:, 0]] = True
    return matrix


def sparse_adjacency_from_pairs(
    num_nodes: int, pairs: np.ndarray
) -> scipy.sparse.csr_matrix:
    """Symmetric CSR adjacency from an ``(m, 2)`` array of undirected edges.

    The data dtype is ``intp`` so the sparse kernels can accumulate informed
    counts without the wrap-around a narrow integer dtype would risk.
    """
    import scipy.sparse

    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.size == 0:
        return scipy.sparse.csr_matrix((num_nodes, num_nodes), dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (m, 2), got {pairs.shape}")
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(rows.size, dtype=np.intp)
    return scipy.sparse.csr_matrix(
        (data, (rows, cols)), shape=(num_nodes, num_nodes)
    )


def all_pairs(num_nodes: int) -> list[tuple[int, int]]:
    """All unordered node pairs ``(i, j)`` with ``i < j``."""
    if num_nodes < 0:
        raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
    return [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]

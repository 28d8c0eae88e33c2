"""Graph mobility models: random paths and random walks over a mobility graph.

The random-path model ``RP = (H, P)`` of Section 4.1: at every moment an
agent is travelling along a feasible path of the family ``P`` (one edge of
``H`` per time step); on reaching the end point it chooses a new feasible
path uniformly among those starting there.  Two agents are connected at time
``t`` when they occupy the same point (transmission radius ``r = 0`` measured
in hops), or optionally when they are within ``r`` hops of each other.

When ``P`` is the set of single edges of ``H`` the model degenerates to the
plain random walk over ``H`` (``rho = 1``), the setting of Corollary 6; the
dedicated class :class:`GraphRandomWalkMobility` simulates that case directly
(and more cheaply).

Both classes can export the exact per-agent Markov chain
(:meth:`RandomPathModel.to_markov_chain`), whose mixing time is the
``T_mix`` entering Corollaries 5 and 6.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Optional

import networkx as nx
import numpy as np

from repro.graphs.grid import hop_ball_matrix
from repro.graphs.paths import PathFamily, edge_paths
from repro.markov.chain import MarkovChain
from repro.meg.base import StateInducedGraph
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_node_count

Point = Hashable


class RandomPathModel(StateInducedGraph):
    """The random-path mobility model ``RP = (H, P)`` as a dynamic graph.

    Parameters
    ----------
    num_nodes:
        Number of agents ``n``.
    family:
        The family of feasible paths (see :class:`repro.graphs.paths.PathFamily`).
    radius_hops:
        Transmission radius measured in hops of ``H``.  The paper's setting is
        ``0`` (agents communicate only when co-located); small positive values
        are supported for experimentation.
    holding_probability:
        Probability that an agent does not advance at a given step (the lazy
        variant of the model).  The paper's model uses 0, but on *bipartite*
        mobility graphs (grids!) the strict one-hop-per-step dynamics create a
        parity invariant: two agents whose grid colours differ can never be
        co-located, so flooding with ``radius_hops = 0`` cannot complete.  A
        positive holding probability (or ``radius_hops >= 1``) breaks the
        parity without changing the stationary distribution of the per-agent
        chain, which is what the bounds consume.
    stationary_start:
        When true (default) agents start from the stationary distribution of
        the per-agent chain; when false each agent starts at the beginning of
        a uniformly random feasible path.
    """

    def __init__(
        self,
        num_nodes: int,
        family: PathFamily,
        radius_hops: int = 0,
        holding_probability: float = 0.0,
        stationary_start: bool = True,
    ) -> None:
        self._num_nodes = require_node_count(num_nodes)
        if radius_hops < 0:
            raise ValueError(f"radius_hops must be >= 0, got {radius_hops}")
        if not 0.0 <= holding_probability < 1.0:
            raise ValueError(
                f"holding_probability must lie in [0, 1), got {holding_probability}"
            )
        self._family = family
        self._radius_hops = radius_hops
        self._holding_probability = holding_probability
        self._stationary_start = stationary_start

        # Enumerate the chain states (path index, position index >= 1), where
        # position index i means the agent currently occupies path[i]
        # (the paper indexes positions 2..len(h); we use 1..len(h)-1 in
        # 0-based indexing).
        self._paths = family.paths
        self._states: list[tuple[int, int]] = []
        for path_index, path in enumerate(self._paths):
            for position in range(1, len(path)):
                self._states.append((path_index, position))
        self._state_index = {state: i for i, state in enumerate(self._states)}
        self._state_point = [
            self._paths[path_index][position] for path_index, position in self._states
        ]

        # Precompute, for every point, the indices of states that begin a path
        # from that point (i.e. (path, 1) for each feasible path starting there).
        self._entry_states: dict[Point, list[int]] = defaultdict(list)
        for path_index, path in enumerate(self._paths):
            self._entry_states[path[0]].append(self._state_index[(path_index, 1)])

        # Array form of the chain and the communication neighbourhoods of
        # points (in hops of H), for the vectorized whole-population step, the
        # one-gather snapshot adjacency and the connection probabilities.
        graph = family.graph
        self._point_list = list(graph.nodes())
        point_index = {point: i for i, point in enumerate(self._point_list)}
        self._state_point_index = np.array(
            [point_index[point] for point in self._state_point], dtype=np.intp
        )
        self._point_ball_matrix = hop_ball_matrix(
            graph, radius_hops, self._point_list
        )
        k = len(self._states)
        self._next_state = np.full(k, -1, dtype=np.intp)
        self._entry_count = np.zeros(k, dtype=np.intp)
        max_entries = max(len(v) for v in self._entry_states.values())
        self._entry_matrix = np.zeros((k, max_entries), dtype=np.intp)
        for i, (path_index, position) in enumerate(self._states):
            path = self._paths[path_index]
            if position < len(path) - 1:
                self._next_state[i] = self._state_index[(path_index, position + 1)]
            else:
                entries = self._entry_states[path[-1]]
                self._entry_count[i] = len(entries)
                self._entry_matrix[i, : len(entries)] = entries

        self._agent_states: Optional[np.ndarray] = None
        self._rng: Optional[np.random.Generator] = None
        self._stationary_cache: Optional[np.ndarray] = None
        self._time = 0

    # ------------------------------------------------------------------ #
    # model-level structure
    # ------------------------------------------------------------------ #
    @property
    def family(self) -> PathFamily:
        """The feasible-path family ``P``."""
        return self._family

    @property
    def radius_hops(self) -> int:
        """Transmission radius in hops of the mobility graph."""
        return self._radius_hops

    @property
    def num_states(self) -> int:
        """Number of states of the per-agent Markov chain."""
        return len(self._states)

    def to_markov_chain(self) -> MarkovChain:
        """The exact per-agent chain ``M_RP`` (states are ``(path, position)``).

        Transition rules follow the paper: deterministic advance inside a
        path; at the final point, jump to position 1 of a uniformly random
        feasible path starting there.
        """
        k = len(self._states)
        matrix = np.zeros((k, k))
        for i, (path_index, position) in enumerate(self._states):
            path = self._paths[path_index]
            if position < len(path) - 1:
                j = self._state_index[(path_index, position + 1)]
                matrix[i, j] = 1.0
            else:
                end_point = path[-1]
                entries = self._entry_states[end_point]
                share = 1.0 / len(entries)
                for j in entries:
                    matrix[i, j] += share
        labels = [
            (self._paths[path_index], position + 1)
            for path_index, position in self._states
        ]
        return MarkovChain(matrix, states=labels)

    def stationary_state_distribution(self) -> np.ndarray:
        """Stationary distribution over the chain states.

        For simple, reversible families the distribution is uniform over
        states (Theorem 11 of [14], used in the proof of Corollary 5); in
        that case the uniform vector is returned directly, otherwise it is
        computed from the explicit chain.
        """
        if self._stationary_cache is None:
            if self._family.is_reversible():
                self._stationary_cache = np.full(
                    len(self._states), 1.0 / len(self._states)
                )
            else:
                self._stationary_cache = self.to_markov_chain().stationary_distribution()
        return self._stationary_cache.copy()

    def point_occupancy_distribution(self) -> dict[Point, float]:
        """Stationary probability that an agent occupies each point of ``H``."""
        pi = self.stationary_state_distribution()
        occupancy: dict[Point, float] = defaultdict(float)
        for probability, point in zip(pi, self._state_point):
            occupancy[point] += float(probability)
        for point in self._family.graph.nodes():
            occupancy.setdefault(point, 0.0)
        return dict(occupancy)

    def edge_probability(self) -> float:
        """``P_NM`` — stationary probability that two fixed agents are connected."""
        pi = self.stationary_state_distribution()
        q = self._state_connection_probabilities(pi)
        return float(pi @ q)

    def shared_neighbor_probability(self) -> float:
        """``P_NM2`` — probability two fixed agents both connect to a third."""
        pi = self.stationary_state_distribution()
        q = self._state_connection_probabilities(pi)
        return float(pi @ (q**2))

    def eta(self) -> float:
        """Pairwise-correlation parameter ``P_NM2 / P_NM**2`` of Theorem 3."""
        p_nm = self.edge_probability()
        if p_nm <= 0:
            raise ValueError("the stationary edge probability is zero")
        return self.shared_neighbor_probability() / p_nm**2

    def _state_connection_probabilities(self, pi: np.ndarray) -> np.ndarray:
        """``q(x)`` — probability a stationary agent connects to one in state ``x``."""
        occupancy = np.bincount(
            self._state_point_index, weights=pi, minlength=len(self._point_list)
        )
        return (self._point_ball_matrix @ occupancy)[self._state_point_index]

    # ------------------------------------------------------------------ #
    # process
    # ------------------------------------------------------------------ #
    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        if self._stationary_start:
            pi = self.stationary_state_distribution()
            self._agent_states = self._rng.choice(
                len(self._states), size=self._num_nodes, p=pi
            )
        else:
            starts = [
                self._state_index[(path_index, 1)]
                for path_index in self._rng.integers(
                    0, len(self._paths), size=self._num_nodes
                )
            ]
            self._agent_states = np.array(starts, dtype=int)

    def step(self) -> None:
        if self._agent_states is None or self._rng is None:
            raise RuntimeError("call reset() before step()")
        if self._holding_probability:
            # The lazy variant interleaves a hold draw with the jump draw per
            # agent; a vectorized version would reorder the random stream, so
            # keep the loop for exactness.
            for agent in range(self._num_nodes):
                if self._rng.random() < self._holding_probability:
                    continue
                self._step_one_agent(agent)
        else:
            # Whole-population step: deterministic in-path advances come from
            # one table lookup, and the end-of-path jumps draw broadcast
            # bounded integers — element for element the same values as the
            # historical per-agent scalar draws.
            states = self._agent_states
            advanced = self._next_state[states]
            at_end = advanced < 0
            if at_end.any():
                end_states = states[at_end]
                draws = self._rng.integers(0, self._entry_count[end_states])
                advanced[at_end] = self._entry_matrix[end_states, draws]
            self._agent_states = advanced
        self._time += 1

    def _step_one_agent(self, agent: int) -> None:
        path_index, position = self._states[self._agent_states[agent]]
        path = self._paths[path_index]
        if position < len(path) - 1:
            self._agent_states[agent] = self._state_index[(path_index, position + 1)]
        else:
            entries = self._entry_states[path[-1]]
            self._agent_states[agent] = entries[self._rng.integers(len(entries))]

    def agent_points(self) -> list[Point]:
        """Current point of the mobility graph occupied by every agent."""
        if self._agent_states is None:
            raise RuntimeError("call reset() before querying positions")
        return [self._state_point[s] for s in self._agent_states]

    def _node_classes(self) -> np.ndarray:
        if self._agent_states is None:
            raise RuntimeError("call reset() before querying the snapshot")
        return self._state_point_index[self._agent_states]

    def _class_relation(self) -> np.ndarray:
        return self._point_ball_matrix


class GraphRandomWalkMobility(StateInducedGraph):
    """Independent random walks over a mobility graph ``H`` (``rho = 1``).

    Agents occupy the vertices of ``H``; at every step each agent moves to a
    uniformly random neighbour of its current vertex (with an optional
    holding probability).  Agents are connected when they are within
    ``radius_hops`` hops of each other (0 = co-located, the standard
    setting).  The per-agent chain is exactly the (lazy) random walk on
    ``H``, whose mixing time is what Corollary 6 consumes.
    """

    def __init__(
        self,
        num_nodes: int,
        graph: nx.Graph,
        radius_hops: int = 0,
        holding_probability: float = 0.0,
        stationary_start: bool = True,
    ) -> None:
        self._num_nodes = require_node_count(num_nodes)
        if graph.number_of_nodes() < 2:
            raise ValueError("the mobility graph needs at least two points")
        if not nx.is_connected(graph):
            raise ValueError("the mobility graph must be connected")
        if radius_hops < 0:
            raise ValueError(f"radius_hops must be >= 0, got {radius_hops}")
        if not 0.0 <= holding_probability < 1.0:
            raise ValueError(
                f"holding_probability must lie in [0, 1), got {holding_probability}"
            )
        self._graph = graph
        self._points = list(graph.nodes())
        self._point_index = {point: i for i, point in enumerate(self._points)}
        self._neighbors = [
            [self._point_index[v] for v in graph.neighbors(point)]
            for point in self._points
        ]
        self._degrees = np.array([len(nbrs) for nbrs in self._neighbors], dtype=float)
        self._radius_hops = radius_hops
        self._holding_probability = holding_probability
        self._stationary_start = stationary_start
        # The point-level ball relation (the snapshot's class relation) and
        # the neighbour lists padded into one integer matrix (whole-population
        # steps draw broadcast bounded integers).
        k = len(self._points)
        self._ball_matrix = hop_ball_matrix(graph, radius_hops, self._points)
        self._degree_counts = np.array(
            [len(nbrs) for nbrs in self._neighbors], dtype=np.intp
        )
        self._neighbor_matrix = np.zeros(
            (k, int(self._degree_counts.max())), dtype=np.intp
        )
        for i, nbrs in enumerate(self._neighbors):
            self._neighbor_matrix[i, : len(nbrs)] = nbrs
        self._agent_points: Optional[np.ndarray] = None
        self._rng: Optional[np.random.Generator] = None
        self._time = 0

    @property
    def graph(self) -> nx.Graph:
        """The mobility graph ``H``."""
        return self._graph

    @property
    def radius_hops(self) -> int:
        """Transmission radius in hops."""
        return self._radius_hops

    def to_markov_chain(self) -> MarkovChain:
        """The per-agent (possibly lazy) random-walk chain on ``H``."""
        from repro.markov.builders import random_walk_on_graph

        walk = random_walk_on_graph(self._graph)
        if self._holding_probability > 0.0:
            walk = walk.lazy(self._holding_probability)
        return walk

    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        k = len(self._points)
        if self._stationary_start:
            probabilities = self._degrees / self._degrees.sum()
            self._agent_points = self._rng.choice(k, size=self._num_nodes, p=probabilities)
        else:
            self._agent_points = self._rng.integers(0, k, size=self._num_nodes)

    def step(self) -> None:
        if self._agent_points is None or self._rng is None:
            raise RuntimeError("call reset() before step()")
        if self._holding_probability:
            # Hold draws interleave with move draws per agent; vectorizing
            # would reorder the random stream, so the lazy walk keeps the loop.
            for agent in range(self._num_nodes):
                if self._rng.random() < self._holding_probability:
                    continue
                neighbors = self._neighbors[self._agent_points[agent]]
                self._agent_points[agent] = neighbors[
                    self._rng.integers(len(neighbors))
                ]
        else:
            # Whole-population step: broadcast bounded integers draw element
            # for element the same values as the historical per-agent loop.
            points = self._agent_points
            draws = self._rng.integers(0, self._degree_counts[points])
            self._agent_points = self._neighbor_matrix[points, draws]
        self._time += 1

    def agent_points(self) -> list:
        """Current point labels occupied by every agent."""
        if self._agent_points is None:
            raise RuntimeError("call reset() before querying positions")
        return [self._points[i] for i in self._agent_points]

    def _node_classes(self) -> np.ndarray:
        if self._agent_points is None:
            raise RuntimeError("call reset() before querying the snapshot")
        return self._agent_points

    def _class_relation(self) -> np.ndarray:
        return self._ball_matrix

    def edge_probability(self) -> float:
        """Stationary probability that two fixed agents are connected.

        Agent positions are independent draws from the walk's stationary
        distribution (proportional to point degree), so the probability is
        ``pi^T B pi`` with ``B`` the point-ball matrix.
        """
        pi = self._degrees / self._degrees.sum()
        return float(pi @ self._ball_matrix @ pi)


def random_walk_path_model(
    num_nodes: int, graph: nx.Graph, radius_hops: int = 0
) -> RandomPathModel:
    """The random-path model whose feasible paths are the single edges of ``H``.

    Equivalent (in distribution) to :class:`GraphRandomWalkMobility` without
    laziness; provided mainly to cross-validate the two implementations in
    the test suite.
    """
    return RandomPathModel(num_nodes, edge_paths(graph), radius_hops=radius_hops)

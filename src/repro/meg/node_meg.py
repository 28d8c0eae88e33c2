"""Node-Markovian evolving graphs ``NM(n, M, C)`` (paper, Section 4).

Every node runs an independent copy of a finite Markov chain ``M = (S, P)``;
a symmetric connection map ``C : S x S -> {0, 1}`` decides, from the two
current states alone, whether an edge is present.  Node-MEGs capture every
mobility model in which nodes act independently over a discrete space: the
state can encode position, destination, speed, trajectory phase, and so on.

The class also computes the two stationary quantities of Fact 2 exactly:

* ``P_NM`` — the probability that two fixed nodes are connected when both
  states are stationary;
* ``P_NM2`` — the probability that two fixed nodes are *both* connected to a
  third fixed node;

and the ratio ``eta = P_NM2 / P_NM**2`` that Theorem 3 consumes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.markov.chain import MarkovChain
from repro.meg.base import StateInducedGraph
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_node_count

ConnectionLike = Callable[[object, object], bool] | Sequence[Sequence[int]] | np.ndarray


def _connection_matrix(chain: MarkovChain, connection: ConnectionLike) -> np.ndarray:
    """Normalise a connection map into a symmetric boolean matrix over state indices."""
    k = chain.num_states
    if callable(connection):
        matrix = np.zeros((k, k), dtype=bool)
        states = chain.states
        for i in range(k):
            for j in range(i, k):
                value = bool(connection(states[i], states[j]))
                matrix[i, j] = value
                matrix[j, i] = value
        return matrix
    matrix = np.asarray(connection, dtype=bool)
    if matrix.shape != (k, k):
        raise ValueError(
            f"connection matrix must have shape ({k}, {k}), got {matrix.shape}"
        )
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("the connection map C must be symmetric")
    return matrix.copy()


class NodeMEG(StateInducedGraph):
    """A node-Markovian evolving graph ``NM(n, M, C)``.

    Its snapshot views come from :class:`~repro.meg.base.StateInducedGraph`:
    the node states are the classes and ``C`` is the relation, so the dense
    adjacency is one gather and flooding updates work at state level.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    chain:
        The per-node Markov chain ``M``.
    connection:
        Either a symmetric callable ``C(state_u, state_v) -> bool`` over state
        labels or a symmetric boolean matrix indexed by state indices.
    initial_distribution:
        Optional per-node initial distribution over states (defaults to the
        stationary distribution of ``chain`` — a stationary node-MEG).
    """

    def __init__(
        self,
        num_nodes: int,
        chain: MarkovChain,
        connection: ConnectionLike,
        initial_distribution: Optional[Sequence[float]] = None,
    ) -> None:
        self._num_nodes = require_node_count(num_nodes)
        self._chain = chain
        self._connection = _connection_matrix(chain, connection)
        if not self._connection.any():
            raise ValueError(
                "the connection map is identically 0; the graph would always be empty"
            )
        if initial_distribution is None:
            self._initial_distribution = chain.stationary_distribution()
        else:
            dist = np.asarray(initial_distribution, dtype=float)
            if dist.shape != (chain.num_states,):
                raise ValueError(
                    f"initial distribution must have length {chain.num_states}"
                )
            if np.any(dist < 0) or not np.isclose(dist.sum(), 1.0, atol=1e-8):
                raise ValueError("initial distribution must be a probability vector")
            self._initial_distribution = dist
        self._cumulative = np.cumsum(chain.transition_matrix, axis=1)
        self._states: Optional[np.ndarray] = None
        self._rng: Optional[np.random.Generator] = None
        self._time = 0

    # ------------------------------------------------------------------ #
    # model-level quantities (Fact 2 / Theorem 3 inputs)
    # ------------------------------------------------------------------ #
    @property
    def chain(self) -> MarkovChain:
        """The per-node hidden Markov chain."""
        return self._chain

    def connection_matrix(self) -> np.ndarray:
        """Copy of the symmetric boolean connection matrix over state indices."""
        return self._connection.copy()

    def state_connection_probability(self) -> np.ndarray:
        """``q(x) = sum_y pi(y) C(x, y)`` for every state ``x``.

        ``q(x)`` is the probability that a fixed node in state ``x`` is
        connected to another fixed node whose state is stationary.
        """
        pi = self._chain.stationary_distribution()
        return self._connection.astype(float) @ pi

    def edge_probability(self) -> float:
        """``P_NM`` — stationary probability that two fixed nodes are connected."""
        pi = self._chain.stationary_distribution()
        q = self.state_connection_probability()
        return float(pi @ q)

    def shared_neighbor_probability(self) -> float:
        """``P_NM2`` — probability two fixed nodes are both connected to a third."""
        pi = self._chain.stationary_distribution()
        q = self.state_connection_probability()
        return float(pi @ (q**2))

    def eta(self) -> float:
        """The pairwise-correlation parameter ``eta = P_NM2 / P_NM**2``.

        Theorem 3 requires ``P_NM2 <= eta * P_NM**2`` for some ``eta >= 1``;
        this returns the smallest such ``eta`` (never below 1 by Jensen's
        inequality, up to numerical noise).
        """
        p_nm = self.edge_probability()
        if p_nm <= 0:
            raise ValueError("the stationary edge probability P_NM is zero")
        return self.shared_neighbor_probability() / p_nm**2

    # ------------------------------------------------------------------ #
    # process
    # ------------------------------------------------------------------ #
    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        self._states = self._rng.choice(
            self._chain.num_states, size=self._num_nodes, p=self._initial_distribution
        )

    def step(self) -> None:
        if self._states is None or self._rng is None:
            raise RuntimeError("call reset() before step()")
        u = self._rng.random(self._num_nodes)
        rows = self._cumulative[self._states]
        nxt = (rows < u[:, None]).sum(axis=1)
        self._states = np.minimum(nxt, self._chain.num_states - 1)
        self._time += 1

    def node_states(self) -> np.ndarray:
        """Current state index of every node."""
        if self._states is None:
            raise RuntimeError("call reset() before querying node states")
        return self._states.copy()

    def node_state_labels(self) -> list:
        """Current state label of every node."""
        states = self.node_states()
        labels = self._chain.states
        return [labels[i] for i in states]

    def _node_classes(self) -> np.ndarray:
        if self._states is None:
            raise RuntimeError("call reset() before querying the snapshot")
        return self._states

    def _class_relation(self) -> np.ndarray:
        return self._connection

    def trial_batch(self, count: int) -> "_NodeMEGTrialBatch":
        """Fast batched-trial runner (see :mod:`repro.engine.batch`)."""
        return _NodeMEGTrialBatch(self, count)


class _NodeMEGTrialBatch:
    """Advances ``B`` independent node-MEG realizations in lock-step.

    Exactness relies on two mirrored draws, both pinned by regression tests
    in the engine test suite:

    * the stationary reset ``rng.choice(k, size=n, p=pi)`` equals
      ``cdf.searchsorted(rng.random(n), side="right")`` with ``cdf`` the
      renormalised cumulative of ``pi`` — NumPy's own implementation of the
      cumulative-inversion draw;
    * ``rng.random((w, n))`` consumes the PCG64 stream exactly as ``w``
      sequential ``rng.random(n)`` calls, so each trial pre-draws a window of
      ``w`` step rounds in one generator call.  Trials finishing mid-window
      over-draw their (private, discarded) generator; the unused values are
      never observable.

    Each step round then mirrors :meth:`NodeMEG.step` for all active trials
    at once: ``(cumulative[states] < u[..., None]).sum(axis=-1)`` clipped to
    ``k - 1``.
    """

    _WINDOW_ROUNDS = 8

    def __init__(self, model: NodeMEG, count: int) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._num_nodes = model.num_nodes
        self._num_states = model.chain.num_states
        self._connection = model._connection
        self._cumulative = model._cumulative
        cdf = np.cumsum(model._initial_distribution)
        cdf /= cdf[-1]
        self._initial_cdf = cdf
        self._count = count
        self._rngs: Optional[list[np.random.Generator]] = None
        self._states: Optional[np.ndarray] = None
        self._window: Optional[np.ndarray] = None

    def reset(self, rngs: Sequence[np.random.Generator]) -> None:
        if len(rngs) != self._count:
            raise ValueError(f"expected {self._count} generators, got {len(rngs)}")
        uniforms = np.empty((self._count, self._num_nodes))
        for trial, rng in enumerate(rngs):
            rng.random(out=uniforms[trial])
        self._states = self._initial_cdf.searchsorted(uniforms, side="right")
        np.minimum(self._states, self._num_states - 1, out=self._states)
        self._rngs = list(rngs)
        self._window = np.empty((self._count, self._WINDOW_ROUNDS, self._num_nodes))

    def reach(self, informed: np.ndarray, sub: np.ndarray) -> np.ndarray:
        assert self._states is not None
        states = self._states[sub]
        occupied = np.zeros((sub.size, self._num_states), dtype=bool)
        rows, nodes = np.nonzero(informed[sub])
        occupied[rows, states[rows, nodes]] = True
        connected = (occupied[:, None, :] & self._connection[None, :, :]).any(axis=2)
        return np.take_along_axis(connected, states, axis=1)

    def step(self, sub: np.ndarray, round_index: int) -> None:
        assert self._states is not None and self._window is not None
        assert self._rngs is not None
        offset = round_index % self._WINDOW_ROUNDS
        if offset == 0:
            for trial in sub:
                self._rngs[trial].random(out=self._window[trial])
        uniforms = self._window[sub, offset]
        states = self._states[sub]
        advanced = (self._cumulative[states] < uniforms[:, :, None]).sum(axis=2)
        self._states[sub] = np.minimum(advanced, self._num_states - 1)

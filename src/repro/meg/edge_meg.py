"""Edge-Markovian evolving graphs.

Two models are provided:

* :class:`EdgeMEG` — the classic model of [10] (the paper's Appendix A recap):
  every potential edge evolves independently according to a two-state chain
  with birth rate ``p`` (off -> on) and death rate ``q`` (on -> off).  Its
  stationary edge probability is ``p / (p + q)`` and the chain's mixing time
  is ``Theta(1 / (p + q))``.

* :class:`GeneralEdgeMEG` — the paper's generalisation: every edge follows an
  independent copy of an *arbitrary* hidden Markov chain ``M = (S, P)`` and a
  map ``chi : S -> {0, 1}`` decides whether the edge is present.  Because
  edges are independent, the β-independence condition of Theorem 1 holds with
  ``β = 1`` and the flooding bound becomes
  ``O(T_mix (1/(n α) + 1)^2 log^2 n)`` with ``α`` the stationary probability
  that ``chi`` is 1.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.markov.chain import MarkovChain
from repro.meg.base import PairIndexedGraph, dense_adjacency_from_pairs
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_node_count, require_probability


class EdgeMEG(PairIndexedGraph):
    """The classic edge-MEG: independent birth/death dynamics on every edge.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    p:
        Edge birth rate (probability that a missing edge appears).
    q:
        Edge death rate (probability that an existing edge disappears).
    initial_edge_probability:
        Probability that each edge exists at time 0.  ``None`` (default)
        starts the process from its stationary distribution ``p / (p + q)``,
        i.e. a stationary MEG; ``0.0`` starts from the empty graph.
    """

    def __init__(
        self,
        num_nodes: int,
        p: float,
        q: float,
        initial_edge_probability: Optional[float] = None,
    ) -> None:
        self._num_nodes = require_node_count(num_nodes)
        require_probability(p, "p")
        require_probability(q, "q")
        if p == 0.0 and q == 0.0:
            raise ValueError("p and q cannot both be zero (edges would be frozen)")
        self._p = p
        self._q = q
        if initial_edge_probability is not None:
            require_probability(initial_edge_probability, "initial_edge_probability")
        self._initial_edge_probability = initial_edge_probability
        self._index_pairs(num_nodes)
        self._rng: Optional[np.random.Generator] = None
        self._time = 0

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    @property
    def p(self) -> float:
        """Edge birth rate."""
        return self._p

    @property
    def q(self) -> float:
        """Edge death rate."""
        return self._q

    def stationary_edge_probability(self) -> float:
        """Stationary probability ``p / (p + q)`` that any fixed edge exists."""
        return self._p / (self._p + self._q)

    def edge_chain(self) -> MarkovChain:
        """The per-edge two-state chain (states ``'off'``, ``'on'``)."""
        from repro.markov.builders import two_state_chain

        return two_state_chain(self._p, self._q)

    # ------------------------------------------------------------------ #
    # process
    # ------------------------------------------------------------------ #
    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        if self._initial_edge_probability is None:
            probability = self.stationary_edge_probability()
        else:
            probability = self._initial_edge_probability
        self._set_active((self._rng.random(self.num_pairs) < probability).nonzero()[0])

    def step(self) -> None:
        if self._active is None or self._rng is None:
            raise RuntimeError("call reset() before step()")
        u = self._rng.random(self.num_pairs)
        # off edges are born with probability p, on edges die with probability q
        present = u < self._p
        active = self._active
        present[active] = u[active] >= self._q
        self._set_active(present.nonzero()[0])
        self._time += 1

    def adjacency_matrix(self) -> np.ndarray:
        # The inherited default does the same; overriding it is what marks the
        # model as array-backed, so ``backend="auto"`` picks a fast kernel.
        return dense_adjacency_from_pairs(self._num_nodes, self.edge_pairs())

    def _cache_params(self) -> dict:
        return {
            "p": self._p,
            "q": self._q,
            "initial_edge_probability": self._initial_edge_probability,
        }


def four_state_edge_meg(
    num_nodes: int,
    p_up: float,
    p_down: float,
    p_stabilize: float,
    p_destabilize: float,
) -> "GeneralEdgeMEG":
    """The four-state refined edge-MEG of [5], as a generalised edge-MEG.

    Every edge follows the four-state chain built by
    :func:`repro.markov.builders.four_state_edge_chain` (stable/volatile x
    up/down) and is present exactly in the two ``on`` states.  The classic
    two-state model cannot express the resulting heavy-tailed up/down
    durations, but the paper's Appendix-A analysis applies unchanged because
    edges are still independent (``beta = 1``).
    """
    from repro.markov.builders import four_state_edge_chain

    chain = four_state_edge_chain(p_up, p_down, p_stabilize, p_destabilize)
    chi = [0, 0, 1, 1]  # aligned with ('off-stable', 'off-volatile', 'on-volatile', 'on-stable')
    return GeneralEdgeMEG(num_nodes, chain, chi=chi)


class GeneralEdgeMEG(PairIndexedGraph):
    """Generalised edge-MEG ``EM(n, M, chi)`` (paper, Appendix A).

    Every unordered pair of nodes carries an independent copy of the hidden
    chain ``M``; the edge is present exactly when ``chi`` maps the current
    hidden state to 1.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    chain:
        The hidden edge chain ``M = (S, P)``.
    chi:
        Either a callable mapping a state label to a truthy/falsy value, or a
        sequence of 0/1 flags aligned with ``chain.states``.
    initial_distribution:
        Optional initial distribution over hidden states (defaults to the
        stationary distribution of ``chain``, i.e. a stationary MEG).
    """

    def __init__(
        self,
        num_nodes: int,
        chain: MarkovChain,
        chi: Callable[[object], bool] | Sequence[int],
        initial_distribution: Optional[Sequence[float]] = None,
    ) -> None:
        self._num_nodes = require_node_count(num_nodes)
        self._chain = chain
        if callable(chi):
            flags = np.array([bool(chi(state)) for state in chain.states], dtype=bool)
        else:
            flags = np.asarray([bool(v) for v in chi], dtype=bool)
            if flags.shape != (chain.num_states,):
                raise ValueError(
                    f"chi must provide one flag per state ({chain.num_states}), "
                    f"got {flags.shape[0]}"
                )
        if not flags.any():
            raise ValueError("chi maps every state to 0; the graph would always be empty")
        self._chi_flags = flags
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
        self._index_pairs(num_nodes)
        self._cumulative = np.cumsum(chain.transition_matrix, axis=1)
        self._states: Optional[np.ndarray] = None
        self._rng: Optional[np.random.Generator] = None
        self._time = 0

    @property
    def chain(self) -> MarkovChain:
        """The hidden per-edge chain."""
        return self._chain

    def stationary_edge_probability(self) -> float:
        """Stationary probability ``alpha`` that ``chi`` of the hidden state is 1."""
        pi = self._chain.stationary_distribution()
        return float(pi[self._chi_flags].sum())

    def chi_flags(self) -> np.ndarray:
        """Copy of the per-state on/off flags."""
        return self._chi_flags.copy()

    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        self._states = self._rng.choice(
            self._chain.num_states, size=self.num_pairs, p=self._initial_distribution
        )
        self._set_active(self._chi_flags[self._states].nonzero()[0])

    def step(self) -> None:
        if self._states is None or self._rng is None:
            raise RuntimeError("call reset() before step()")
        u = self._rng.random(self.num_pairs)
        rows = self._cumulative[self._states]
        nxt = (rows < u[:, None]).sum(axis=1)
        self._states = np.minimum(nxt, self._chain.num_states - 1)
        self._set_active(self._chi_flags[self._states].nonzero()[0])
        self._time += 1

    def adjacency_matrix(self) -> np.ndarray:
        # The inherited default does the same; overriding it is what marks the
        # model as array-backed, so ``backend="auto"`` picks a fast kernel.
        return dense_adjacency_from_pairs(self._num_nodes, self.edge_pairs())

    def _cache_params(self) -> dict:
        return {
            "transition_matrix": self._chain.transition_matrix.tolist(),
            "chi": self._chi_flags.astype(int).tolist(),
            "initial_distribution": np.asarray(self._initial_distribution).tolist(),
        }

"""Randomised spreading protocols beyond flooding.

The paper's conclusions observe that richer protocols — for example "every
informed node transmits to a randomly chosen subset of its neighbours" — can
be reduced to flooding over a *virtual* dynamic graph in which a subset of
the edges has been removed.  This module implements that reduction directly:

* :func:`gossip_spread` — push gossip where each informed node forwards the
  message over each incident edge independently with a transmission
  probability, or to at most ``fanout`` random neighbours;
* :func:`si_epidemic` — the classic SI epidemic (per-contact infection
  probability), which is the same virtual-graph reduction phrased in
  epidemiological terms.

Both return a :class:`SpreadingResult` mirroring
:class:`repro.core.flooding.FloodingResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.flooding import default_max_steps, prepare_flood
from repro.meg.base import DynamicGraph
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_probability


@dataclass(frozen=True)
class SpreadingResult:
    """Outcome of one randomised-spreading run."""

    source: int
    num_nodes: int
    informed_history: tuple[int, ...]
    completion_time: Optional[int]

    @property
    def completed(self) -> bool:
        """Whether every node was informed before the step limit."""
        return self.completion_time is not None

    @property
    def final_informed(self) -> int:
        """Number of informed nodes when the run stopped."""
        return self.informed_history[-1]

    def time_to_fraction(self, fraction: float) -> Optional[int]:
        """First time at which at least ``fraction`` of the nodes are informed."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
        threshold = fraction * self.num_nodes
        for t, count in enumerate(self.informed_history):
            if count >= threshold:
                return t
        return None


def _spread(
    process: DynamicGraph,
    source: int,
    rng: RNGLike,
    max_steps: Optional[int],
    reset: bool,
    transmit,
) -> SpreadingResult:
    n = process.num_nodes
    generator = ensure_rng(rng)
    # Flooding's prologue; a randomised protocol gets twice flooding's cap.
    cap = 2 * default_max_steps(n) if max_steps is None else max_steps
    max_steps = prepare_flood(process, [source], generator, cap, reset)

    informed: set[int] = {source}
    history = [1]
    if n == 1:
        return SpreadingResult(source, n, tuple(history), 0)

    completion: Optional[int] = None
    for t in range(max_steps):
        # Current snapshot adjacency restricted to informed senders.
        adjacency: dict[int, list[int]] = {}
        for a, b in process.current_edges():
            if a in informed and b not in informed:
                adjacency.setdefault(a, []).append(b)
            if b in informed and a not in informed:
                adjacency.setdefault(b, []).append(a)
        newly: set[int] = set()
        for sender, receivers in adjacency.items():
            newly.update(transmit(sender, receivers, generator))
        informed |= newly
        history.append(len(informed))
        process.step()
        if len(informed) == n:
            completion = t + 1
            break
    return SpreadingResult(source, n, tuple(history), completion)


def gossip_spread(
    process: DynamicGraph,
    source: int = 0,
    transmission_probability: Optional[float] = None,
    fanout: Optional[int] = None,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> SpreadingResult:
    """Push gossip over a dynamic graph.

    Exactly one of the two mechanisms must be selected:

    * ``transmission_probability`` — each informed node forwards over each
      incident edge independently with this probability (the virtual dynamic
      graph keeps each edge with that probability);
    * ``fanout`` — each informed node forwards to at most ``fanout`` uniformly
      chosen current neighbours (the classic push protocol; ``fanout = 1`` is
      the standard single-call push).

    With ``transmission_probability = 1`` the process coincides with flooding.
    """
    if (transmission_probability is None) == (fanout is None):
        raise ValueError(
            "select exactly one of transmission_probability and fanout"
        )
    if transmission_probability is not None:
        require_probability(transmission_probability, "transmission_probability")
        probability = transmission_probability

        def transmit(_sender: int, receivers: list[int], generator: np.random.Generator):
            mask = generator.random(len(receivers)) < probability
            return [r for r, keep in zip(receivers, mask) if keep]

    else:
        if fanout < 1:  # type: ignore[operator]
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        k = int(fanout)  # type: ignore[arg-type]

        def transmit(_sender: int, receivers: list[int], generator: np.random.Generator):
            if len(receivers) <= k:
                return list(receivers)
            chosen = generator.choice(len(receivers), size=k, replace=False)
            return [receivers[i] for i in chosen]

    return _spread(process, source, rng, max_steps, reset, transmit)


def push_pull_spread(
    process: DynamicGraph,
    source: int = 0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> SpreadingResult:
    """The classic push–pull protocol over a dynamic graph.

    At every step each *informed* node pushes the message to one uniformly
    random current neighbour, and each *uninformed* node pulls from one
    uniformly random current neighbour (succeeding when that neighbour is
    informed).  Push–pull is the canonical "randomised subset" protocol the
    paper's conclusions point to; like the others it reduces to flooding over
    a virtual dynamic graph that keeps, per step, at most two incident edges
    per node.
    """
    n = process.num_nodes
    generator = ensure_rng(rng)
    # Flooding's prologue; a randomised protocol gets twice flooding's cap.
    cap = 2 * default_max_steps(n) if max_steps is None else max_steps
    max_steps = prepare_flood(process, [source], generator, cap, reset)

    informed: set[int] = {source}
    history = [1]
    if n == 1:
        return SpreadingResult(source, n, tuple(history), 0)

    completion: Optional[int] = None
    for t in range(max_steps):
        adjacency: dict[int, list[int]] = {}
        for a, b in process.current_edges():
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        newly: set[int] = set()
        for node, neighbors in adjacency.items():
            if not neighbors:
                continue
            partner = neighbors[generator.integers(len(neighbors))]
            if node in informed and partner not in informed:
                newly.add(partner)  # push
            elif node not in informed and partner in informed:
                newly.add(node)  # pull
        informed |= newly
        history.append(len(informed))
        process.step()
        if len(informed) == n:
            completion = t + 1
            break
    return SpreadingResult(source, n, tuple(history), completion)


def si_epidemic(
    process: DynamicGraph,
    source: int = 0,
    infection_probability: float = 1.0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> SpreadingResult:
    """SI epidemic over a dynamic graph (per-contact infection probability).

    Every contact (edge between an infected and a susceptible node in the
    current snapshot) independently transmits with ``infection_probability``.
    ``infection_probability = 1`` recovers flooding.
    """
    require_probability(infection_probability, "infection_probability")
    probability = infection_probability

    def transmit(_sender: int, receivers: list[int], generator: np.random.Generator):
        mask = generator.random(len(receivers)) < probability
        return [r for r, keep in zip(receivers, mask) if keep]

    return _spread(process, source, rng, max_steps, reset, transmit)

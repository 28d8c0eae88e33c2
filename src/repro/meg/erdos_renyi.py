"""A sequence of independent Erdős–Rényi snapshots.

This is the memoryless baseline studied (for radio broadcast) in [9] and the
degenerate edge-MEG with ``p + q = 1``: every snapshot is a fresh ``G(n, p)``
independent of the past.  Its mixing time is 1, so it is the fastest-mixing
dynamic graph with a given density — a useful reference point in the
experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.meg.base import PairIndexedGraph
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_node_count, require_probability


class ErdosRenyiSequence(PairIndexedGraph):
    """Independent ``G(n, p)`` snapshots at every time step."""

    def __init__(self, num_nodes: int, p: float) -> None:
        self._num_nodes = require_node_count(num_nodes)
        self._p = require_probability(p, "p")
        self._index_pairs(num_nodes)
        self._rng: Optional[np.random.Generator] = None
        self._time = 0

    @property
    def p(self) -> float:
        """Per-snapshot edge probability."""
        return self._p

    def stationary_edge_probability(self) -> float:
        """The stationary edge probability equals ``p`` (snapshots are i.i.d.)."""
        return self._p

    def _draw(self) -> None:
        assert self._rng is not None
        self._set_active((self._rng.random(self.num_pairs) < self._p).nonzero()[0])

    def reset(self, rng: RNGLike = None) -> None:
        self._rng = ensure_rng(rng)
        self._time = 0
        self._draw()

    def step(self) -> None:
        if self._rng is None:
            raise RuntimeError("call reset() before step()")
        self._draw()
        self._time += 1

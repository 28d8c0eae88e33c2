"""Record-and-replay of one dynamic-graph realization.

Several estimators flood *multiple times over the same realization*: the
batched-source estimator floods every source of a batch over one shared
evolution, and memory limits can force that batch to be processed in chunks.
Without help, each chunk would have to re-step the stochastic model from the
same seed — paying the full snapshot-generation cost (RNG draws, k-d tree
builds, matrix assembly) once per chunk.

:class:`SnapshotReplay` removes that cost: it wraps any
:class:`~repro.meg.base.DynamicGraph` and records each snapshot's CSR
adjacency the first time it is stepped past.  :meth:`SnapshotReplay.rewind`
then restarts time at the recorded snapshot 0 *without touching the
underlying model or its random stream*; stepping within the recorded window
serves stored frames, and stepping past the frontier extends the recording
by stepping the real model.  Because the flooding update is deterministic
given the snapshot, every kernel (set-based, dense, sparse) produces
bit-identical results over a replay as over the live model.

Memory: a recording holds one CSR matrix per recorded step — ``O(T * m)``
for ``T`` steps of ``m``-edge snapshots — which is exactly the footprint
that makes replay cheaper than re-stepping, not free.  Use it for floods
that genuinely share a realization, not as a general cache.  Frames are
deliberately stored sparse whatever the consuming kernel: a dense kernel
pays one ``O(n^2)`` CSR-to-dense expansion per step per chunk, which is
dominated by the chunk's own ``O(n^2 * B)`` matmul, while caching dense
frames would reintroduce the ``O(T * n^2)`` memory the recording exists to
avoid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Set

import numpy as np

from repro.meg.base import DynamicGraph
from repro.util.rng import RNGLike

if TYPE_CHECKING:
    import scipy.sparse


class SnapshotReplay(DynamicGraph):
    """Wrap a model; record its snapshots once, replay them bit-identically.

    The wrapper is itself a :class:`~repro.meg.base.DynamicGraph`, so every
    flooding kernel accepts it unchanged.  The snapshot at construction time
    becomes recorded frame 0; :meth:`reset` re-seeds the underlying model and
    starts a fresh recording, :meth:`rewind` restarts playback of the current
    recording.
    """

    def __init__(self, model: DynamicGraph) -> None:
        if not isinstance(model, DynamicGraph):
            raise TypeError(f"model must be a DynamicGraph, got {type(model).__name__}")
        self._model = model
        self._num_nodes = model.num_nodes
        # Frame 0 is captured lazily on first use: models are allowed to be
        # un-initialised until their first reset().
        self._frames: list[scipy.sparse.csr_matrix] = []
        self._cursor = 0
        self._time = 0

    @property
    def model(self) -> DynamicGraph:
        """The wrapped model."""
        return self._model

    @property
    def recorded_steps(self) -> int:
        """Number of snapshots recorded so far (including frame 0)."""
        return len(self._frames)

    @property
    def cursor(self) -> int:
        """Index of the frame currently being played."""
        return self._cursor

    def _capture(self) -> scipy.sparse.csr_matrix:
        # Copied so models that mutate their adjacency buffers in place on
        # step() cannot corrupt earlier frames.
        return self._model.sparse_adjacency().tocsr().copy()

    def _frame(self) -> scipy.sparse.csr_matrix:
        """The recorded frame at the current cursor (capturing frame 0 lazily)."""
        if not self._frames:
            self._frames.append(self._capture())
        return self._frames[self._cursor]

    # ------------------------------------------------------------------ #
    # DynamicGraph interface
    # ------------------------------------------------------------------ #
    def reset(self, rng: RNGLike = None) -> None:
        """Re-seed the underlying model and start a fresh recording."""
        self._model.reset(rng)
        self._frames = []
        self._cursor = 0
        self._time = 0

    def rewind(self, frame: int = 0) -> None:
        """Restart playback at a recorded frame (no model or RNG access).

        ``frame`` defaults to 0 (the start of the recording); passing a
        previously visited cursor position replays from there instead —
        chunked floods use this to restart every chunk at the position the
        replay had when the flood began.
        """
        if frame < 0 or frame > self._cursor:
            raise ValueError(
                f"can only rewind to a visited frame in [0, {self._cursor}], got {frame}"
            )
        self._cursor = frame
        self._time = frame

    def step(self) -> None:
        """Advance one step: replay a recorded frame or extend the recording."""
        self._frame()  # record the current snapshot before moving past it
        self._cursor += 1
        self._time += 1
        if self._cursor == len(self._frames):
            self._model.step()
            self._frames.append(self._capture())

    def current_edges(self) -> Iterator[tuple[int, int]]:
        import scipy.sparse

        upper = scipy.sparse.triu(self._frame(), k=1).tocoo()
        return iter(list(zip(upper.row.tolist(), upper.col.tolist())))

    # ------------------------------------------------------------------ #
    # fast snapshot interfaces (all served from the recorded frame)
    # ------------------------------------------------------------------ #
    def sparse_adjacency(self) -> scipy.sparse.csr_matrix:
        return self._frame()

    def adjacency_matrix(self) -> np.ndarray:
        return self._frame().toarray().astype(bool)

    def reach_mask(self, informed: np.ndarray) -> np.ndarray:
        mask = np.asarray(informed, dtype=bool)
        return (self._frame() @ mask.astype(np.intp)) != 0

    def neighbors_of_set(self, nodes: Set[int]) -> set[int]:
        rows = sorted(nodes)
        if not rows:
            return set()
        return set(int(j) for j in self._frame()[rows].indices)

    def cache_token(self) -> dict:
        """Delegate to the wrapped model (a replay is not a new model)."""
        return self._model.cache_token()

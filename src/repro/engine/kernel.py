"""Vectorized flooding kernels (dense NumPy and sparse CSR).

The set-based simulator in :mod:`repro.core.flooding` advances the informed
set one Python-level union at a time.  The kernels here represent the
informed set as a boolean vector (or, for whole batches of sources, a boolean
``n x B`` matrix) and advance it against the snapshot's adjacency instead:
:func:`flood_vectorized` against the dense boolean matrix, :func:`flood_sparse`
against the CSR form (a sparse matvec costs ``O(m)`` per step instead of the
dense kernel's ``O(n^2)``, which wins on large sparse snapshots — exactly the
regime where the paper's asymptotics bite).

All kernels are *exact*: given the same model and the same seed they produce
bit-identical flooding times and informed-count histories as the set-based
loop, because the informed-set update is deterministic given the snapshot and
the model consumes its random stream identically either way.  The engine
therefore treats the kernel purely as a speed choice (see
:func:`repro.engine.engine.resolve_backend`).  Every loop starts with
:func:`repro.core.flooding.prepare_flood` and differs only in its per-round
reach step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.flooding import FloodingResult, prepare_flood
from repro.meg.base import DynamicGraph, overrides
from repro.telemetry import core as telemetry
from repro.util.rng import RNGLike

if TYPE_CHECKING:
    import scipy.sparse

#: One round's reach step: the nodes the informed array reaches this round.
Reach = Callable[[np.ndarray], np.ndarray]


def _record_flood(kernel: str, history: Sequence[int]) -> None:
    """Fold one completed flood into the active telemetry (no-op when off).

    Records the kernel chosen, the number of rounds run and the peak frontier
    (largest one-round gain of the informed-count history) — the round-level
    raw material for analysing the spreading dynamics of a run.
    """
    tel = telemetry.active()
    if tel is None:
        return
    tel.count(f"kernel.flood.{kernel}")
    rounds = len(history) - 1
    tel.timing("kernel.rounds", rounds)
    if rounds:
        tel.timing(
            "kernel.frontier_peak",
            max(later - earlier for earlier, later in zip(history, history[1:])),
        )


def _as_count_csr(matrix) -> scipy.sparse.csr_matrix:
    """CSR with an ``intp`` data dtype (no wrap-around when counts accumulate)."""
    import scipy.sparse

    if not scipy.sparse.issparse(matrix):
        raise TypeError(
            f"sparse_adjacency must return a scipy sparse matrix, got {type(matrix).__name__}"
        )
    matrix = matrix.tocsr()
    if matrix.dtype != np.intp:
        matrix = matrix.astype(np.intp)
    return matrix


def _csr_reach(process: DynamicGraph, shape) -> Reach:
    """The sparse reach step: one CSR matvec against the informed ``shape`` array.

    One ``intp`` count array is hoisted out of the round loop (the per-round
    ``astype`` allocations used to dominate small-model rounds), and the CSR
    conversion is memoized by the identity of the returned matrix, so models
    serving a cached snapshot convert once, not once per round.
    """
    counts = np.empty(shape, dtype=np.intp)
    cached = [None, None]

    def reach(informed: np.ndarray) -> np.ndarray:
        raw = process.sparse_adjacency()
        if raw is not cached[0]:
            cached[:] = raw, _as_count_csr(raw)
        np.copyto(counts, informed)
        return (cached[1] @ counts) != 0

    return reach


def _flood_vector(
    process: DynamicGraph,
    source: int,
    rng: RNGLike,
    max_steps: Optional[int],
    reset: bool,
    kernel: str,
    reach: Reach,
) -> FloodingResult:
    """The boolean-vector flooding loop; ``reach`` is the per-round step."""
    max_steps = prepare_flood(process, [source], rng, max_steps, reset)
    n = process.num_nodes
    history = [1]
    if n == 1:
        return FloodingResult(source, n, tuple(history), 0)

    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    flooding_time_value: Optional[int] = None
    for t in range(max_steps):
        informed |= reach(informed)
        count = int(informed.sum())
        history.append(count)
        process.step()
        if count == n:
            flooding_time_value = t + 1
            break
    _record_flood(kernel, history)
    return FloodingResult(source, n, tuple(history), flooding_time_value)


def flood_vectorized(
    process: DynamicGraph,
    source: int = 0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> FloodingResult:
    """Vectorized drop-in replacement for :func:`repro.core.flooding.flood`.

    Same contract and same results; the informed set lives in a boolean
    vector and each step applies the model's
    :meth:`~repro.meg.base.DynamicGraph.reach_mask` — by default an OR over
    the adjacency rows of the currently informed nodes, overridden by the
    state-induced families (node-MEGs, graph mobility models) with an update
    that never touches the dense matrix.
    """
    return _flood_vector(process, source, rng, max_steps, reset, "vectorized", process.reach_mask)


def flood_sparse(
    process: DynamicGraph,
    source: int = 0,
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
) -> FloodingResult:
    """Sparse-matvec drop-in replacement for :func:`repro.core.flooding.flood`.

    Same contract and same results as :func:`flood_vectorized`, but each step
    multiplies the snapshot's CSR adjacency against the informed vector —
    ``O(m)`` work per step — instead of touching the dense ``n x n`` matrix.
    """
    reach = _csr_reach(process, process.num_nodes)
    return _flood_vector(process, source, rng, max_steps, reset, "sparse", reach)


def flood_sources_batch(
    process: DynamicGraph,
    sources: Sequence[int],
    rng: RNGLike = None,
    max_steps: Optional[int] = None,
    reset: bool = True,
    backend: str = "dense",
    chunk_size: Optional[int] = None,
) -> list[Optional[int]]:
    """Flood from every source in ``sources`` over *one shared realization*.

    All sources ride the same evolving graph: the informed sets form the
    columns of an ``n x B`` boolean matrix and one matrix product advances
    every flood per time step.  Returns the per-source flooding times (in
    input order), with ``None`` for floods that hit the step cap.

    Note this is a different estimator from
    :func:`repro.core.flooding.worst_case_flooding_time`, which draws an
    independent realization per source; sharing the realization is what makes
    the batch vectorizable and is the natural object for studying how the
    flooding time depends on the source within a fixed evolution.

    ``backend`` selects the per-step product: ``"dense"`` multiplies the
    dense boolean adjacency, ``"sparse"`` the CSR adjacency (same results).

    ``chunk_size`` bounds the number of sources advanced per pass (the
    ``n x B`` informed matrix is the memory hot spot for huge batches).  The
    realization is recorded on the first chunk through a
    :class:`~repro.engine.replay.SnapshotReplay` and *replayed* for the rest,
    so later chunks never re-step the stochastic model; results are
    bit-identical to the unchunked pass because each source's column evolves
    independently of the others.
    """
    if backend not in ("dense", "sparse"):
        raise ValueError(f"backend must be 'dense' or 'sparse', got {backend!r}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    source_list = [int(s) for s in sources]
    chunked = chunk_size is not None and len(source_list) > chunk_size
    if chunked:
        from repro.engine.replay import SnapshotReplay

        if not isinstance(process, SnapshotReplay):
            process = SnapshotReplay(process)
    max_steps = prepare_flood(process, source_list, rng, max_steps, reset, batch=True)
    if chunked:
        # Every chunk must flood the same realization window, which starts at
        # the replay's position *now* — frame 0 only after a reset, but a
        # caller may hand over a replay mid-playback.
        origin = process.cursor
        times: list[Optional[int]] = []
        for start in range(0, len(source_list), chunk_size):
            if start:
                process.rewind(origin)
            times.extend(
                flood_sources_batch(
                    process,
                    source_list[start : start + chunk_size],
                    max_steps=max_steps,
                    reset=False,
                    backend=backend,
                )
            )
        return times

    n = process.num_nodes
    batch = len(source_list)
    if n == 1:
        return [0] * batch

    informed = np.zeros((n, batch), dtype=bool)
    informed[source_list, np.arange(batch)] = True
    times = np.full(batch, -1, dtype=int)
    if backend == "sparse":
        reach = _csr_reach(process, (n, batch))
    elif overrides(process, "reach_mask_batch"):
        # Models with a state-level batched reach skip the dense product.
        reach = process.reach_mask_batch
    else:
        reach = _dense_batch_reach(process, n, batch)
    for t in range(max_steps):
        informed |= reach(informed)
        process.step()
        counts = informed.sum(axis=0)
        newly_complete = (counts == n) & (times < 0)
        times[newly_complete] = t + 1
        if (times >= 0).all():
            break
    tel = telemetry.active()
    if tel is not None:
        tel.count(f"kernel.flood.batch_{backend}", batch)
        tel.timing("kernel.batch_width", batch)
        finished = times[times >= 0]
        if finished.size:
            tel.timing("kernel.rounds", int(finished.max()))
    return [int(t) if t >= 0 else None for t in times]


def _dense_batch_reach(process: DynamicGraph, n: int, batch: int) -> Reach:
    """The dense reach step of a source batch: one BLAS product per round.

    The accumulator must hold neighbour counts up to n exactly: a uint8
    product would wrap when a node has a multiple of 256 informed
    neighbours and silently drop the update.  float32 holds every integer
    below 2**24 exactly and rides the BLAS matmul; huge graphs fall back to
    the (slower, unbounded) intp product.  Every per-round buffer is hoisted
    here (the ``astype`` allocations used to dominate small-model rounds).
    """
    accumulator = np.float32 if n < 2**24 else np.intp
    matrix = np.empty((n, n), dtype=accumulator)
    counts = np.empty((n, batch), dtype=accumulator)
    product = np.empty((n, batch), dtype=accumulator)

    def reach(informed: np.ndarray) -> np.ndarray:
        np.copyto(matrix, process.adjacency_matrix())
        np.copyto(counts, informed)
        np.matmul(matrix, counts, out=product)
        return product != 0

    return reach

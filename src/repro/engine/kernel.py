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
therefore treats the kernel purely as a speed choice (``backend="auto"``
picks a vectorized kernel whenever the model overrides
:meth:`~repro.meg.base.DynamicGraph.adjacency_matrix` with a fast array
implementation, and upgrades to the sparse kernel on large, sparse models).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse

from repro.core.flooding import FloodingResult, default_max_steps
from repro.meg.base import DynamicGraph, overrides
from repro.telemetry import core as telemetry
from repro.util.rng import RNGLike


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
    if not scipy.sparse.issparse(matrix):
        raise TypeError(
            f"sparse_adjacency must return a scipy sparse matrix, got {type(matrix).__name__}"
        )
    matrix = matrix.tocsr()
    if matrix.dtype != np.intp:
        matrix = matrix.astype(np.intp)
    return matrix


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
    n = process.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if max_steps is None:
        max_steps = default_max_steps(n)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if reset:
        process.reset(rng)

    history = [1]
    if n == 1:
        return FloodingResult(source, n, tuple(history), 0)

    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    flooding_time_value: Optional[int] = None
    for t in range(max_steps):
        informed |= process.reach_mask(informed)
        count = int(informed.sum())
        history.append(count)
        process.step()
        if count == n:
            flooding_time_value = t + 1
            break
    _record_flood("vectorized", history)
    return FloodingResult(source, n, tuple(history), flooding_time_value)


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
    n = process.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if max_steps is None:
        max_steps = default_max_steps(n)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if reset:
        process.reset(rng)

    history = [1]
    if n == 1:
        return FloodingResult(source, n, tuple(history), 0)

    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    flooding_time_value: Optional[int] = None
    # One intp count vector hoisted out of the round loop (the per-round
    # ``informed.astype`` allocations used to dominate small-model rounds).
    # The CSR conversion is memoized by the identity of the returned matrix,
    # so models serving a cached snapshot convert once, not once per round.
    count_scratch = np.empty(n, dtype=np.intp)
    raw_cached = matrix = None
    for t in range(max_steps):
        raw = process.sparse_adjacency()
        if raw is not raw_cached:
            matrix = _as_count_csr(raw)
            raw_cached = raw
        np.copyto(count_scratch, informed)
        informed |= (matrix @ count_scratch) != 0
        count = int(informed.sum())
        history.append(count)
        process.step()
        if count == n:
            flooding_time_value = t + 1
            break
    _record_flood("sparse", history)
    return FloodingResult(source, n, tuple(history), flooding_time_value)


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
    n = process.num_nodes
    source_array = np.asarray(list(sources), dtype=int)
    if source_array.size == 0:
        raise ValueError("at least one source is required")
    if source_array.min() < 0 or source_array.max() >= n:
        raise ValueError(f"sources out of range for {n} nodes")
    if max_steps is None:
        max_steps = default_max_steps(n)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if chunk_size is not None and source_array.size > chunk_size:
        from repro.engine.replay import SnapshotReplay

        replay = process if isinstance(process, SnapshotReplay) else SnapshotReplay(process)
        if reset:
            replay.reset(rng)
        # Every chunk must flood the same realization window, which starts at
        # the replay's position *now* — frame 0 only after a reset, but a
        # caller may hand over a replay mid-playback.
        origin = replay.cursor
        times: list[Optional[int]] = []
        for start in range(0, source_array.size, chunk_size):
            if start:
                replay.rewind(origin)
            times.extend(
                flood_sources_batch(
                    replay,
                    source_array[start : start + chunk_size].tolist(),
                    max_steps=max_steps,
                    reset=False,
                    backend=backend,
                )
            )
        return times
    if reset:
        process.reset(rng)

    batch = source_array.size
    if n == 1:
        return [0] * batch

    informed = np.zeros((n, batch), dtype=bool)
    informed[source_array, np.arange(batch)] = True
    times = np.full(batch, -1, dtype=int)
    # The accumulator must hold neighbour counts up to n exactly: a uint8
    # product would wrap when a node has a multiple of 256 informed
    # neighbours and silently drop the update.  float32 holds every integer
    # below 2**24 exactly and rides the BLAS matmul; huge graphs fall back
    # to the (slower, unbounded) intp product.
    accumulator = np.float32 if n < 2**24 else np.intp
    # Models with a state-level batched reach skip the dense product
    # entirely; for the rest, every per-round buffer is hoisted here (the
    # astype allocations used to dominate small-model rounds).
    state_batch = backend == "dense" and overrides(process, "reach_mask_batch")
    if backend == "sparse":
        count_buffer = np.empty((n, batch), dtype=np.intp)
        raw_cached = matrix = None
    elif not state_batch:
        matrix_buffer = np.empty((n, n), dtype=accumulator)
        informed_buffer = np.empty((n, batch), dtype=accumulator)
        product_buffer = np.empty((n, batch), dtype=accumulator)
    for t in range(max_steps):
        if backend == "sparse":
            raw = process.sparse_adjacency()
            if raw is not raw_cached:
                matrix = _as_count_csr(raw)
                raw_cached = raw
            np.copyto(count_buffer, informed)
            reached = (matrix @ count_buffer) != 0
        elif state_batch:
            reached = process.reach_mask_batch(informed)
        else:
            np.copyto(matrix_buffer, process.adjacency_matrix())
            np.copyto(informed_buffer, informed)
            np.matmul(matrix_buffer, informed_buffer, out=product_buffer)
            reached = product_buffer != 0
        informed |= reached
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

"""The Monte-Carlo execution engine.

:class:`Engine` is the single place where batches of independent flooding
trials get executed.  It owns three orthogonal decisions:

* **scheduling** — trials run serially in-process (``workers=1``) or fan out
  over a ``concurrent.futures`` pool (``workers>1``): a
  ``ProcessPoolExecutor`` by default, or a ``ThreadPoolExecutor`` with
  ``executor="thread"`` (cheaper start-up, shared memory; useful for
  IO-bound models and models that release the GIL in NumPy kernels).  Every
  trial's seed is a ``SeedSequence`` child spawned *before* scheduling, so
  the samples are bit-identical regardless of worker count, executor kind or
  scheduling order;
* **kernel** — the set-based loop of :func:`repro.core.flooding.flood` or
  the vectorized kernel of :func:`repro.engine.kernel.flood_vectorized`.
  ``backend="auto"`` selects the vectorized kernel exactly when the model
  overrides :meth:`~repro.meg.base.DynamicGraph.adjacency_matrix` with a
  fast array implementation.  Both kernels produce identical samples, so the
  choice never changes results;
* **caching** — with a :class:`~repro.engine.store.ResultStore` attached,
  a batch whose content key (model + trial parameters + seeds) is already
  stored is returned from the store without simulating.

Two statistical extensions ride on the chunk loop (see
:mod:`repro.stats.sequential`): specs carrying a
:class:`~repro.stats.sequential.StoppingRule` are evaluated between
rule-sized trial chunks and stop once the running confidence interval is
narrow enough — the realized trial count depends only on the (worker-
invariant) samples, so stopped runs stay bit-identical at any worker count
— and engines constructed with ``sketch=True`` embed mergeable
moment/quantile sketches in stored records so the store can aggregate
sharded batches without materializing every sample.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Optional, Sequence

import numpy as np

from repro.core.flooding import flood, flood_sources_set
from repro.engine.batch import flood_trials_batch
from repro.engine.kernel import flood_sources_batch, flood_sparse, flood_vectorized
from repro.engine.options import BACKENDS as BACKENDS, EXECUTORS as EXECUTORS
from repro.engine.shard import (
    ShardSpec,
    batch_salt,
    batch_store_key,
    key_seeds,
    shard_store_key,
    trial_seeds,
)
from repro.engine.spec import BatchResult, TrialSpec
from repro.engine.store import ResultStore
from repro.meg.base import DynamicGraph, overrides
from repro.stats.sequential import MomentSketch, sketch_from_samples
from repro.telemetry import core as telemetry
from repro.telemetry import trace as tracectx


# ``backend="auto"`` upgrades from the dense to the sparse kernel when the
# model is at least this large and its estimated snapshot density is at most
# this fraction: below it the O(m)-per-step sparse matvec beats touching the
# dense n x n matrix; above it the dense kernel's contiguous memory wins.
SPARSE_AUTO_MIN_NODES = 1024
SPARSE_AUTO_MAX_DENSITY = 0.05

# ``backend="auto"`` switches single-source batches to the realization-batch
# kernel when the model supplies a fast trial-batch runner, the (chunk's)
# trial count is at least this wide and the model small enough that stacked
# per-trial state fits comfortably — the regime where per-round Python
# dispatch, not NumPy work, dominates per-trial execution (measured ~3-4x
# for node-MEGs up to 256 nodes).
BATCH_AUTO_MIN_TRIALS = 32
BATCH_AUTO_MAX_NODES = 256

# Upper bound on the number of trials one batched kernel pass advances
# (bounds the B x n informed matrix and the stacked per-trial state).
BATCH_TRIAL_CHUNK = 1024

_KERNELS = {
    "set": flood,
    "vectorized": flood_vectorized,
    "sparse": flood_sparse,
}


def estimated_snapshot_density(model: DynamicGraph) -> Optional[float]:
    """Best-effort stationary edge density of ``model`` (``None`` if unknown).

    Tries the model-level stationary quantities the paper's analysis already
    exposes: the pairwise edge probability of the MEG families and the
    expected-degree estimate of the geometric models.
    """
    for attribute in ("edge_probability", "stationary_edge_probability"):
        method = getattr(model, attribute, None)
        if method is None:
            continue
        try:
            return float(method())
        except Exception:
            continue
    method = getattr(model, "expected_degree_estimate", None)
    if method is not None:
        try:
            return float(method()) / max(model.num_nodes - 1, 1)
        except Exception:
            pass
    return None


def resolve_backend(
    backend: str,
    model: DynamicGraph,
    num_trials: int = 1,
    batched_sources: bool = False,
) -> str:
    """Concrete kernel choice for a batch of ``num_trials`` trials on ``model``.

    ``"auto"`` resolves in order:

    * the realization-batch kernel when the model supplies a fast
      trial-batch runner, the batch is wide (``>= BATCH_AUTO_MIN_TRIALS``
      single-source trials) and the model small (``<= BATCH_AUTO_MAX_NODES``
      nodes) — the regime where per-trial dispatch dominates;
    * the set-based loop for models without a fast adjacency override;
    * otherwise a vectorized kernel — upgraded to the sparse CSR kernel when
      the model is large (``>= SPARSE_AUTO_MIN_NODES`` nodes) and its
      estimated snapshot density small (``<= SPARSE_AUTO_MAX_DENSITY``).
      Models with a fast :meth:`~repro.meg.base.DynamicGraph.reach_mask`
      (node-MEGs, graph mobility models) stay on the vectorized kernel at
      any size: their state-level update already avoids the dense matrix.

    An explicit ``"batch"`` is honoured for single-source trials on models
    with a trial-batch runner and resolves to ``"vectorized"`` otherwise —
    for batched-source trials, which the realization-batch kernel does not
    cover, and for models without a runner.  Either way the samples are the
    same.
    """
    if backend == "auto":
        if (
            not batched_sources
            and num_trials >= BATCH_AUTO_MIN_TRIALS
            and model.num_nodes <= BATCH_AUTO_MAX_NODES
            and overrides(model, "trial_batch")
        ):
            return "batch"
        if not overrides(model, "adjacency_matrix"):
            return "set"
        if not overrides(model, "reach_mask") and model.num_nodes >= SPARSE_AUTO_MIN_NODES:
            density = estimated_snapshot_density(model)
            if density is not None and density <= SPARSE_AUTO_MAX_DENSITY:
                return "sparse"
        return "vectorized"
    if backend == "batch":
        if batched_sources or not overrides(model, "trial_batch"):
            return "vectorized"
        return "batch"
    if backend in _KERNELS:
        return backend
    raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")


def _trial_sources(
    model: DynamicGraph,
    sources,
    num_sources: Optional[int],
    rng: np.random.Generator,
) -> Optional[list[int]]:
    """The source batch of one trial, or ``None`` for a single-source trial.

    ``num_sources`` draws a fresh distinct-source sample per trial from the
    trial's own stream (before the model reset consumes it), so the sampled
    sources are as reproducible as the trials themselves.
    """
    if num_sources is not None:
        n = model.num_nodes
        if num_sources > n:
            raise ValueError(
                f"num_sources ({num_sources}) exceeds the model's {n} nodes; "
                f"use sources='all' to flood from every node"
            )
        chosen = rng.choice(n, size=num_sources, replace=False)
        return [int(s) for s in chosen]
    if isinstance(sources, str):  # validated to be "all" by TrialSpec
        return list(range(model.num_nodes))
    if sources is not None:
        return [int(s) for s in sources]
    return None


def run_source_batch(
    model: DynamicGraph,
    sources: Sequence[int],
    rng: np.random.Generator,
    max_steps: Optional[int],
    backend: str = "auto",
    chunk_size: Optional[int] = None,
) -> list[int]:
    """Flooding time of every source in ``sources`` over one shared realization.

    The one source-batch dispatch behind both the engine's batched-source
    trials and :func:`repro.core.flooding.batch_source_flooding_times`:
    ``backend`` resolves as for a batched-source trial, the set loop runs
    :func:`~repro.core.flooding.flood_sources_set` and the vectorized kernels
    run :func:`~repro.engine.kernel.flood_sources_batch` with the dense or
    sparse product (``chunk_size`` bounds its width per pass).  Raises if any
    source hits the step cap.
    """
    resolved = resolve_backend(backend, model, batched_sources=True)
    if resolved == "set":
        times = flood_sources_set(model, sources, rng=rng, max_steps=max_steps)
    else:
        times = flood_sources_batch(
            model,
            sources,
            rng=rng,
            max_steps=max_steps,
            backend="sparse" if resolved == "sparse" else "dense",
            chunk_size=chunk_size,
        )
    unfinished = sum(1 for t in times if t is None)
    if unfinished:
        raise RuntimeError(
            f"flooding did not complete within the step limit for "
            f"{unfinished}/{len(times)} sources"
        )
    return [int(t) for t in times]


def _run_single_trial(
    model: DynamicGraph,
    seed: np.random.SeedSequence,
    source: int,
    sources,
    num_sources: Optional[int],
    max_steps: Optional[int],
    backend: str,
    source_chunk: Optional[int] = None,
) -> tuple[int, int]:
    """One flooding trial; returns ``(flooding_time, num_nodes)``.

    A batched-source trial floods every source of the batch over one shared
    realization and reports the worst (largest) flooding time — the per-trial
    estimate of ``F(G) = max_s F(G, s)``.  ``source_chunk`` bounds the batch
    width per kernel pass (the realization is recorded once and replayed for
    later chunks — identical results, bounded memory).
    """
    rng = np.random.default_rng(seed)
    resolved = resolve_backend(backend, model)
    if telemetry.active() is not None:
        telemetry.count(f"engine.backend.{resolved}")
    source_batch = _trial_sources(model, sources, num_sources, rng)
    if source_batch is None:
        result = _KERNELS[resolved](model, source=source, rng=rng, max_steps=max_steps)
        if result.flooding_time is None:
            raise RuntimeError(
                f"flooding did not complete within the step limit "
                f"({result.final_informed}/{result.num_nodes} nodes informed)"
            )
        return result.flooding_time, result.num_nodes
    times = run_source_batch(model, source_batch, rng, max_steps, resolved, source_chunk)
    return max(times), model.num_nodes


def _run_trial_chunk(
    model: DynamicGraph,
    seeds: Sequence,
    source: int,
    sources,
    num_sources: Optional[int],
    max_steps: Optional[int],
    backend: str,
    source_chunk: Optional[int] = None,
) -> list[tuple[int, int]]:
    """Run a contiguous chunk of trials, batching them when the kernel allows.

    The chunk is where the realization-batch kernel plugs in: the backend is
    resolved once against the chunk's width, and a ``"batch"`` resolution
    floods all of the chunk's seeds in lock-step (in slices of at most
    ``BATCH_TRIAL_CHUNK``) instead of one kernel call per trial.  Every other
    resolution falls through to the per-trial path.  Either way the trials
    consume their per-seed streams identically, so the outcomes do not depend
    on the chunking (or on the worker count that produced it).
    """
    resolved = resolve_backend(
        backend,
        model,
        num_trials=len(seeds),
        batched_sources=sources is not None or num_sources is not None,
    )
    if resolved != "batch":
        return [
            _run_single_trial(
                model, seed, source, sources, num_sources, max_steps, resolved, source_chunk
            )
            for seed in seeds
        ]
    if telemetry.active() is not None:
        telemetry.count("engine.backend.batch", len(seeds))
    outcomes: list[tuple[int, int]] = []
    for start in range(0, len(seeds), BATCH_TRIAL_CHUNK):
        group = list(seeds[start : start + BATCH_TRIAL_CHUNK])
        results = flood_trials_batch(model, group, source=source, max_steps=max_steps)
        for result in results:
            if result.flooding_time is None:
                raise RuntimeError(
                    f"flooding did not complete within the step limit "
                    f"({result.final_informed}/{result.num_nodes} nodes informed)"
                )
            outcomes.append((result.flooding_time, result.num_nodes))
    return outcomes


def _execute_chunk(payload) -> tuple[list[tuple[int, int]], float, Optional[dict]]:
    """Worker entry point: run a contiguous chunk of trials on one model copy.

    The model arrives pickled once per chunk (at most once per worker), and
    the chunk's trials reuse that copy exactly as the serial path reuses its
    single instance — every trial resets the model with its own seed.

    Returns ``(outcomes, execute_seconds, metrics_snapshot)``.  When the
    parent runs with telemetry (``collect``), a pool *process* — which cannot
    see the parent's registry — activates an in-memory
    :class:`~repro.telemetry.core.Telemetry` for the chunk and ships its
    metrics back as the snapshot; a pool *thread* shares the parent's
    registry directly and returns ``None``.

    ``context`` (the payload's last element) carries the parent's telemetry
    directory and trace carrier: when present, the chunk also records one
    ``engine.chunk`` span — through a per-process file-backed writer in a
    pool process (its own ``events-*.jsonl``: the third process of a traced
    serve request's tree), or through the shared registry in a pool thread
    — stamped with the trace id and parented on the engine's run span.
    """
    (
        model,
        seeds,
        source,
        sources,
        num_sources,
        max_steps,
        backend,
        source_chunk,
        collect,
        context,
    ) = payload
    started = time.perf_counter()
    child = None
    inherited = telemetry.active()
    foreign = inherited is None or inherited.pid != os.getpid()
    # A forked pool worker inherits the parent's instance but must not write
    # through it (its buffers die with the fork); give it a fresh registry.
    if collect and foreign:
        child = telemetry.activate(telemetry.Telemetry(directory=None))
    try:
        outcomes = _run_trial_chunk(
            model, seeds, source, sources, num_sources, max_steps, backend, source_chunk
        )
    finally:
        if child is not None:
            telemetry.deactivate(child)
    snapshot = child.metrics_snapshot() if child is not None else None
    execute_seconds = time.perf_counter() - started
    if context is not None:
        writer = _chunk_writer(context["directory"]) if foreign else inherited
        if writer is not None:
            with tracectx.attach_carrier(context.get("trace")):
                writer.record_span(
                    "engine.chunk", execute_seconds, trials=len(seeds)
                )
    return outcomes, execute_seconds, snapshot


#: Per-(directory, pid) file-backed writers for pool-child chunk spans.  The
#: writer is deliberately never closed: it has no metrics to flush (chunk
#: metrics ship back to the parent as snapshots) and every span line is
#: flushed on write, so a pool child can simply exit.
_chunk_writers: dict = {}


def _chunk_writer(directory: Optional[str]):
    if directory is None:
        return None
    key = (str(directory), os.getpid())
    writer = _chunk_writers.get(key)
    if writer is None:
        writer = _chunk_writers[key] = telemetry.Telemetry(directory)
    return writer


def _store_payload(
    result: BatchResult,
    spec: TrialSpec,
    salt: Optional[int] = None,
    start: int = 0,
    stride: int = 1,
) -> dict:
    """The persisted form of a batch result (plus the spec's provenance tags).

    ``salt`` (derived from the *full* batch's seed token) switches on the
    embedded sketch; a shard passes its ``start``/``stride`` so its entries
    carry the exact reservoir priorities the unsharded stream assigns them,
    making shard-merged sketches byte-identical to unsharded ones.
    """
    payload = {
        "label": result.label,
        "num_nodes": result.num_nodes,
        "flooding_times": list(result.flooding_times),
        "backend": result.backend,
    }
    if spec.tags:
        payload["tags"] = dict(spec.tags)
    if salt is not None and result.flooding_times:
        payload["sketch"] = sketch_from_samples(
            result.flooding_times, salt, start=start, stride=stride
        )
    if spec.stopping is not None:
        payload["stopping"] = {
            "rule": spec.stopping.as_dict(),
            "budget": spec.num_trials,
            "realized_trials": result.num_trials,
            "stopped_early": result.stopped_early,
        }
    return payload


def _run_model(spec: TrialSpec) -> DynamicGraph:
    """The model one run floods: built once, and never the caller's object.

    Trials step their model in place, and a wrapped model may key the store
    on its pickled state, so a wrapped instance is flooded as the same
    pickle round-trip a pool worker receives; the caller's object (and so
    the key of a re-run) stays as it was.  Unpicklable models key on their
    ``id()``, which stepping cannot move, and are flooded as they are.
    """
    model = spec.build_model()
    if spec.wraps_model:
        try:
            frozen = pickle.dumps(model)
        except (pickle.PicklingError, TypeError, AttributeError):
            return model
        return pickle.loads(frozen)
    return model


def _chunk_evenly(items: Sequence, chunks: int) -> list[list]:
    """Split ``items`` into ``chunks`` contiguous, near-equal parts."""
    base, remainder = divmod(len(items), chunks)
    parts = []
    start = 0
    for index in range(chunks):
        size = base + (1 if index < remainder else 0)
        if size:
            parts.append(list(items[start : start + size]))
        start += size
    return parts


class Engine:
    """Executes :class:`TrialSpec` batches serially or on a worker pool.

    Parameters
    ----------
    workers:
        Number of worker processes (1 = run in-process, the default).
    backend:
        ``"auto"`` (default) or one of the concrete kernels — ``"set"``,
        ``"vectorized"``, ``"sparse"`` or ``"batch"`` (the realization-batch
        kernel; single-source specs on models with a trial-batch runner,
        everything else falls back to the vectorized kernel).  All kernels
        produce bit-identical samples; the choice is purely about speed.
    executor:
        Pool kind used when ``workers > 1``: ``"process"`` (default, one
        OS process per worker — true CPU parallelism) or ``"thread"``
        (a ``ThreadPoolExecutor`` — cheap start-up and shared memory, the
        right choice for IO-bound models; each worker chunk still gets its
        own model copy, via the same pickle round-trip the process pool
        performs, so the two executors run byte-identical trials).
    store:
        Optional :class:`ResultStore`; when given, completed batches are
        persisted and identical re-runs are served from the store.
    source_chunk:
        Optional cap on the number of sources a batched-source trial floods
        per kernel pass.  Wide batches beyond the cap record their
        realization once (:class:`~repro.engine.replay.SnapshotReplay`) and
        replay it for the remaining chunks — bit-identical results with the
        ``n x B`` informed matrix bounded at ``n x source_chunk``.
    sketch:
        Embed a mergeable moment/quantile sketch
        (:func:`repro.stats.sequential.sketch_from_samples`) in every
        stored record, letting :meth:`ResultStore.merge
        <repro.engine.store.ResultStore.merge>` aggregate sharded batches
        in O(1) memory per point.  Sketches never change the samples;
        adaptive (stopping-rule) records always embed one.
    """

    def __init__(
        self,
        workers: int = 1,
        backend: str = "auto",
        store: Optional[ResultStore] = None,
        source_chunk: Optional[int] = None,
        executor: str = "process",
        sketch: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if source_chunk is not None and source_chunk < 1:
            raise ValueError(f"source_chunk must be >= 1, got {source_chunk}")
        self.workers = workers
        self.backend = backend
        self.store = store
        self.source_chunk = source_chunk
        self.executor = executor
        self.sketch = bool(sketch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine(workers={self.workers}, backend={self.backend!r}, "
            f"executor={self.executor!r}, store={'yes' if self.store else 'no'})"
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute_trials(
        self, spec: TrialSpec, model: DynamicGraph, seeds: Sequence
    ) -> list[tuple[int, int]]:
        """Run one trial per seed (serially or on the pool), in seed order."""
        if self.workers == 1 or len(seeds) == 1:
            return _run_trial_chunk(
                model,
                seeds,
                spec.source,
                spec.sources,
                spec.num_sources,
                spec.max_steps,
                self.backend,
                self.source_chunk,
            )
        # Imported here: a serial run loads no ``multiprocessing``.
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        chunks = _chunk_evenly(seeds, min(self.workers, len(seeds)))
        if self.executor == "thread":
            # Threads share one address space, but trials mutate their model
            # in place, so each chunk gets a private copy — produced by the
            # same pickle round-trip the process pool performs when it ships
            # the model, keeping the two executors byte-identical.
            frozen = pickle.dumps(model)
            models = [model] + [pickle.loads(frozen) for _ in chunks[1:]]
            pool_type = ThreadPoolExecutor
        else:
            models = [model] * len(chunks)
            pool_type = ProcessPoolExecutor
        tel = telemetry.active()
        context = None
        if tel is not None and tel.directory is not None:
            context = {"directory": tel.directory}
            carrier = telemetry.trace_carrier()
            if carrier is not None:
                context["trace"] = carrier
        payloads = [
            (
                chunk_model,
                chunk,
                spec.source,
                spec.sources,
                spec.num_sources,
                spec.max_steps,
                self.backend,
                self.source_chunk,
                tel is not None,
                context,
            )
            for chunk_model, chunk in zip(models, chunks)
        ]
        with pool_type(max_workers=self.workers) as pool:
            submitted = time.perf_counter()
            completions: dict[int, float] = {}
            futures = []
            for index, payload in enumerate(payloads):
                future = pool.submit(_execute_chunk, payload)
                if tel is not None:
                    future.add_done_callback(
                        lambda _f, _i=index: completions.__setitem__(_i, time.perf_counter())
                    )
                futures.append(future)
            # Futures are drained in submission order, so the flattened
            # outcomes keep seed order exactly as ``executor.map`` did.
            results: list[tuple[int, int]] = []
            busy = 0.0
            for index, future in enumerate(futures):
                outcomes, execute_seconds, snapshot = future.result()
                results.extend(outcomes)
                if tel is not None:
                    tel.merge_metrics(snapshot)
                    tel.count("engine.chunks")
                    tel.timing("engine.chunk.execute_seconds", execute_seconds)
                    completed = completions.get(index)
                    if completed is not None:
                        # perf_counter is per-process, so queue wait is the
                        # parent-observed turnaround minus the child-reported
                        # execute time (both are durations, hence comparable).
                        tel.timing(
                            "engine.chunk.queue_wait_seconds",
                            max(0.0, (completed - submitted) - execute_seconds),
                        )
                    busy += execute_seconds
        if tel is not None:
            wall = time.perf_counter() - submitted
            tel.count(f"engine.executor.{self.executor}")
            if wall > 0:
                tel.gauge(
                    "engine.pool.utilization", min(1.0, busy / (wall * self.workers))
                )
        return results

    def _cached_result(self, record: dict, spec: TrialSpec, started: float) -> BatchResult:
        """A :class:`BatchResult` served from a stored payload."""
        stopping = record.get("stopping") or {}
        return BatchResult(
            label=record.get("label", spec.label),
            num_nodes=record["num_nodes"],
            flooding_times=tuple(record["flooding_times"]),
            backend=record.get("backend", self.backend),
            workers=self.workers,
            from_cache=True,
            elapsed_seconds=time.perf_counter() - started,
            stopped_early=bool(stopping.get("stopped_early", False)),
        )

    def _execute_adaptive(
        self, spec: TrialSpec, model: DynamicGraph, seeds: Sequence
    ) -> tuple[list[tuple[int, int]], bool]:
        """Run trials in rule-sized chunks until the stopping rule fires.

        The chunk boundary is the rule's ``check_every`` — a *statistical*
        boundary fixed by the spec, never by the worker count (each chunk is
        still scheduled across the pool by :meth:`_execute_trials`).  The
        stopping decision after each chunk depends only on the samples in
        trial order, which are worker-invariant, so the realized trial count
        is bit-reproducible at any worker count or executor kind.
        """
        rule = spec.stopping
        moments = MomentSketch()
        outcomes: list[tuple[int, int]] = []
        consumed = 0
        while consumed < len(seeds):
            chunk = seeds[consumed : consumed + rule.check_every]
            chunk_outcomes = self._execute_trials(spec, model, chunk)
            outcomes.extend(chunk_outcomes)
            moments.update_many(time_ for time_, _ in chunk_outcomes)
            consumed += len(chunk)
            if rule.satisfied(moments):
                break
        stopped_early = consumed < len(seeds)
        if stopped_early:
            telemetry.count("stats.stop.early")
            telemetry.count("stats.stop.trials_saved", len(seeds) - consumed)
        return outcomes, stopped_early

    def run(self, spec: TrialSpec) -> BatchResult:
        """Execute (or fetch from the store) one batch of trials."""
        with telemetry.span(
            "engine.run",
            label=spec.label,
            trials=spec.num_trials,
            workers=self.workers,
            executor=self.executor,
        ) as run_span:
            started = time.perf_counter()
            key_material = key_seeds(spec)

            key = None
            if self.store is not None:
                key = batch_store_key(spec, key_material)
                record = self.store.get(key)
                if record is not None:
                    telemetry.count("engine.store.hit")
                    run_span.add(cached=True)
                    return self._cached_result(record, spec, started)
                telemetry.count("engine.store.miss")

            seeds = trial_seeds(spec, key_material)
            # Built exactly once per run, whatever the worker count: a
            # stochastic factory then contributes one realization shared by
            # every trial, so serial and parallel runs sample the same
            # process.
            model = _run_model(spec)
            if spec.stopping is not None:
                outcomes, stopped_early = self._execute_adaptive(spec, model, seeds)
            else:
                outcomes = self._execute_trials(spec, model, seeds)
                stopped_early = False

            flooding_times = tuple(t for t, _ in outcomes)
            num_nodes = outcomes[0][1]
            result = BatchResult(
                label=spec.label,
                num_nodes=num_nodes,
                flooding_times=flooding_times,
                backend=self.backend,
                workers=self.workers,
                from_cache=False,
                elapsed_seconds=time.perf_counter() - started,
                stopped_early=stopped_early,
            )
            if self.store is not None and key is not None:
                salt = None
                if self.sketch or spec.stopping is not None:
                    salt = batch_salt(key_material)
                self.store.put(key, _store_payload(result, spec, salt=salt))
                telemetry.count("engine.store.put")
            run_span.add(cached=False, realized_trials=result.num_trials)
            return result

    def run_shard(self, shard: ShardSpec) -> BatchResult:
        """Execute (or fetch from the store) one shard of a batch.

        Shard ``i`` of ``K`` runs trials ``i, i+K, i+2K, ...`` of the
        unsharded batch with the exact seeds those trials would have used —
        the full per-trial seed list is spawned and the shard's stride
        selected from it — so the returned samples are bit-identical to the
        corresponding slice of :meth:`run` at any worker count.

        With a store attached, the shard's partial result is persisted as a
        self-describing record (shard coordinates + the parent batch's
        content key) that :meth:`ResultStore.merge
        <repro.engine.store.ResultStore.merge>` can reassemble into the full
        batch record.  A stored full batch also serves any of its shards
        directly.

        Sequential stopping cannot be trial-sharded — whether trial ``t``
        runs depends on every sample before it, which no single shard sees —
        so adaptive specs are rejected for ``count > 1`` (the fleet sizes
        shard budgets from a pilot round instead; see
        :func:`repro.fleet.coordinator.plan_variance_budgets`) and delegate
        to :meth:`run` for the trivial ``count == 1`` sharding.
        """
        if shard.spec.stopping is not None:
            if shard.count > 1:
                raise ValueError(
                    "sequential stopping cannot be trial-sharded: the stopping "
                    "decision at trial t depends on all earlier samples; run the "
                    "spec unsharded, or derive fixed per-point budgets from a "
                    "pilot round (fleet --target-ci)"
                )
            return self.run(shard.spec)
        with telemetry.span(
            "engine.run_shard",
            label=shard.spec.label,
            shard=f"{shard.index}/{shard.count}",
            workers=self.workers,
            executor=self.executor,
        ) as run_span:
            started = time.perf_counter()
            spec = shard.spec
            key_material = key_seeds(spec)

            key = parent_key = None
            if self.store is not None:
                parent_key = batch_store_key(spec, key_material)
                key = shard_store_key(parent_key, shard.index, shard.count)
                record = self.store.get(key)
                if record is not None:
                    telemetry.count("engine.store.hit")
                    run_span.add(cached=True)
                    return self._cached_result(record, spec, started)
                full_record = self.store.get(parent_key)
                if full_record is not None:
                    telemetry.count("engine.store.hit")
                    run_span.add(cached=True)
                    sliced = dict(full_record)
                    sliced["flooding_times"] = list(
                        full_record["flooding_times"][shard.index :: shard.count]
                    )
                    # The full batch's sketch covers all trials, not this slice.
                    sliced.pop("sketch", None)
                    return self._cached_result(sliced, spec, started)
                telemetry.count("engine.store.miss")

            all_seeds = trial_seeds(spec, key_material)
            shard_seeds = [all_seeds[i] for i in shard.trial_indices]
            model = _run_model(spec)
            outcomes = self._execute_trials(spec, model, shard_seeds) if shard_seeds else []
            result = BatchResult(
                label=spec.label,
                num_nodes=outcomes[0][1] if outcomes else model.num_nodes,
                flooding_times=tuple(t for t, _ in outcomes),
                backend=self.backend,
                workers=self.workers,
                from_cache=False,
                elapsed_seconds=time.perf_counter() - started,
            )
            if self.store is not None and key is not None and parent_key is not None:
                # The salt comes from the *parent* seed token and the shard's
                # (start, stride) are its interleave coordinates, so the
                # shard's sketch entries are exactly the ones the unsharded
                # run would assign those trials — merge is byte-identical.
                salt = batch_salt(key_material) if self.sketch else None
                payload = _store_payload(
                    result, spec, salt=salt, start=shard.index, stride=shard.count
                )
                self.store.put(key, shard.store_record(payload, parent_key))
                telemetry.count("engine.store.put")
            run_span.add(cached=False)
            return result

    def run_many(
        self, specs: Sequence[TrialSpec], shard: Optional[tuple[int, int]] = None
    ) -> list[BatchResult]:
        """Execute several specs in order (each with its own seed stream).

        With ``shard=(i, K)`` each spec runs only its shard ``i`` of ``K``
        through :meth:`run_shard`.
        """
        if shard is None:
            return [self.run(spec) for spec in specs]
        return [self.run_shard(ShardSpec(spec, *shard)) for spec in specs]

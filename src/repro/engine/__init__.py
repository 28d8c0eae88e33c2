"""Parallel Monte-Carlo execution engine.

The execution backbone all trial-running code routes through:

``repro.engine.spec``
    :class:`TrialSpec` (declarative batch description) and
    :class:`BatchResult`.
``repro.engine.engine``
    :class:`Engine` — serial or multiprocess scheduling with
    ``SeedSequence``-derived per-trial seeds (bit-identical results at any
    worker count) and transparent result caching.
``repro.engine.shard``
    :class:`ShardSpec` and helpers — deterministic partition of a batch into
    ``K`` self-describing shards (shard ``i`` runs trials ``i, i+K, ...``
    with the unsharded run's exact seeds), executable on any machine and
    mergeable back into the full batch.
``repro.engine.options``
    ``BACKENDS``, ``EXECUTORS`` and :func:`parse_shard` — the values the
    CLI's parsers need, importable without NumPy.
``repro.engine.kernel``
    The vectorized flooding kernels — dense NumPy and sparse CSR, single
    source and whole source batches.
``repro.engine.batch``
    The realization-batch kernel — many trials of one family flooded as a
    single tensor pass, for models with a trial-batch runner (node-MEGs).
``repro.engine.replay``
    :class:`SnapshotReplay` — record one realization's snapshots, replay
    them bit-identically (chunked source batches never re-step the model).
``repro.engine.store``
    :class:`ResultStore` — JSONL-backed persistent results with
    content-hashed keys, concurrency-safe appends, a lazily built in-memory
    index, a :meth:`~ResultStore.compact` maintenance helper and
    :meth:`~ResultStore.merge` for unioning shard stores.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engine.batch": ("flood_trials_batch",),
        "repro.engine.engine": (
            "BATCH_AUTO_MAX_NODES",
            "BATCH_AUTO_MIN_TRIALS",
            "SPARSE_AUTO_MAX_DENSITY",
            "SPARSE_AUTO_MIN_NODES",
            "Engine",
            "estimated_snapshot_density",
            "resolve_backend",
            "run_source_batch",
        ),
        "repro.engine.kernel": ("flood_sources_batch", "flood_sparse", "flood_vectorized"),
        "repro.engine.options": ("BACKENDS", "EXECUTORS", "parse_shard"),
        "repro.engine.replay": ("SnapshotReplay",),
        "repro.engine.shard": (
            "ShardSpec",
            "batch_store_key",
            "seed_token",
            "shard_specs",
            "shard_store_key",
        ),
        "repro.engine.spec": ("BatchResult", "TrialSpec"),
        "repro.engine.store": ("MergeConflictError", "MergeReport", "ResultStore", "jsonify"),
        "repro.stats.sequential": ("StoppingRule",),
    },
)

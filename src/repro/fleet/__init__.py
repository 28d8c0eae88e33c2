"""Fleet execution: a crash-safe work queue that drives shard fleets.

The last mile of the sharding story.  PR 3/4 made every sweep and
experiment splittable into byte-identical shards; this package schedules
those shards onto a fleet of workers automatically:

``repro.fleet.queue``
    :class:`JobSpool` — a directory-backed work queue with atomic
    claim-by-rename leases, heartbeat timestamps, lease-expiry requeue and
    a bounded retry budget.
``repro.fleet.jobs``
    JSON job descriptors (one shard of a sweep/experiment workload) and the
    worker-side execution hook that routes them through the engine's
    existing shard paths.
``repro.fleet.worker``
    The ``repro worker --spool DIR`` daemon loop: lease, execute,
    heartbeat, mark done/failed — and reclaim dead peers' leases while
    idle.
``repro.fleet.coordinator``
    ``repro fleet run``: compile a workload into shard jobs, spawn local
    workers (or monitor an external fleet), requeue expired leases, then
    fan in — merged stores and assembled reports byte-identical to a
    one-shot run.
``repro.fleet.status``
    ``repro fleet status``: progress and failure inspection of a spool.
``repro.fleet.top``
    ``repro fleet top``: a live refreshing dashboard over the same data —
    queue depths, per-worker utilization, throughput, drain ETA, slowest
    in-flight jobs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.fleet.coordinator": (
            "FleetError",
            "FleetOutcome",
            "assemble_experiment_report",
            "merge_fleet_stores",
            "plan_variance_budgets",
            "run_fleet",
            "spawn_local_worker",
            "sweep_results_from_store",
        ),
        "repro.fleet.jobs": (
            "DEFAULT_PRIORITY",
            "JOB_KINDS",
            "PRIORITIES",
            "engine_from_config",
            "execute_job",
            "expected_store_keys",
            "experiment_job_payloads",
            "job_expected_keys",
            "request_from_payload",
            "request_job_payloads",
            "sweep_job_payloads",
        ),
        "repro.fleet.queue": ("DEFAULT_LEASE_TTL", "DEFAULT_MAX_ATTEMPTS", "Job", "JobSpool"),
        "repro.fleet.status": (
            "SpoolMetrics",
            "SpoolStatus",
            "format_status",
            "spool_metrics",
            "spool_snapshot",
            "spool_status",
            "status_as_dict",
        ),
        "repro.fleet.top": ("gather_frame", "render_frame", "run_top"),
        "repro.fleet.worker": ("default_worker_id", "run_worker"),
    },
)

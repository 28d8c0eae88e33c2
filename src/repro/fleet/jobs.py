"""Fleet job descriptors: serializable shards of compiled work requests.

A fleet job is one shard of a workload.  The workload itself travels as an
embedded, schema-versioned :class:`~repro.api.WorkRequest` payload — the
same JSON the ``repro serve`` boundary accepts.  The side that enqueues
compiles the request once and derives the ``K`` descriptors from that plan
(:func:`request_job_payloads`); the worker that executes one compiles it
again through :func:`repro.api.compile_request` and runs its shard with
:meth:`CompiledPlan.run <repro.api.CompiledPlan.run>`, so it reconstructs
exactly the :class:`~repro.engine.TrialSpec` batch (and exactly the
per-trial ``SeedSequence`` children and store keys) the equivalent local
run would use.  Which trials or jobs shard ``i/K`` owns is decided there,
in one place, for the CLI's ``--shard`` and the fleet alike.

Job ids are deterministic — a priority prefix, the workload kind, a short
digest of the canonical request and the shard coordinates — so
re-enqueueing the same workload into the same spool is detected (and
rejected) by the spool instead of silently doubling the work, per-job
store directories (``stores/<id>/``) never collide, and the spool's
sorted-id claim order doubles as a priority queue: ``p0-…`` (interactive)
jobs are always claimed before ``p1-…`` (normal) before ``p2-…`` (batch).

Legacy descriptors (flat top-level ``family``/``nodes``/… fields, written
by pre-API spools) still execute: :func:`request_from_payload` lifts them
into a :class:`~repro.api.WorkRequest` on the fly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.api import (
    CompiledPlan,
    InvalidParameterError,
    WorkRequest,
    compile_request,
    experiment_request,
    sweep_request,
)
from repro.engine import Engine, ResultStore
from repro.engine.store import jsonify
from repro.fleet.queue import JobSpool
from repro.telemetry import core as telemetry
from repro.telemetry import trace as tracectx

JOB_KINDS = ("sweep", "experiment", "flood")

#: Claim-priority classes, best first.  The prefix orders the spool's
#: sorted-id claim scan, so priorities need no queue machinery at all.
PRIORITIES = ("interactive", "normal", "batch")
DEFAULT_PRIORITY = "normal"
_PRIORITY_PREFIX = {"interactive": "p0", "normal": "p1", "batch": "p2"}


def _engine_config(engine: Optional[dict]) -> dict:
    """Normalised engine configuration carried in a job descriptor."""
    config = dict(engine or {})
    unknown = set(config) - {"workers", "backend", "executor", "source_chunk"}
    if unknown:
        raise ValueError(f"unknown engine config keys: {sorted(unknown)}")
    return config


def engine_from_config(config: Optional[dict], store: ResultStore) -> Engine:
    """The :class:`Engine` a worker builds from a descriptor's config."""
    config = dict(config or {})
    return Engine(
        workers=int(config.get("workers", 1)),
        backend=config.get("backend", "auto"),
        executor=config.get("executor", "process"),
        source_chunk=config.get("source_chunk"),
        store=store,
    )


def _workload_digest(token: dict) -> str:
    """Short stable digest identifying a workload (same idiom as store keys)."""
    canonical = json.dumps(jsonify(token), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]


def request_from_payload(payload: dict) -> WorkRequest:
    """The work request a job descriptor carries (legacy flat form included)."""
    if "request" in payload:
        return WorkRequest.from_dict(payload["request"])
    kind = payload.get("kind")
    if kind == "sweep":
        return sweep_request(
            family=payload.get("family"),
            nodes=payload.get("nodes") or (),
            trials=payload.get("trials", 0),
            seed=payload.get("seed", 0),
            sources=payload.get("sources"),
            num_sources=payload.get("num_sources"),
            params=payload.get("factory_kwargs"),
        )
    if kind == "experiment":
        return experiment_request(
            payload.get("experiment_id"),
            scale=payload.get("scale", "small"),
            seed=payload.get("seed", 0),
        )
    raise ValueError(f"job kind must be one of {JOB_KINDS}, got {kind!r}")


def request_job_payloads(
    plan: CompiledPlan,
    shards: int,
    engine: Optional[dict] = None,
    priority: str = DEFAULT_PRIORITY,
    trace: Optional[dict] = None,
) -> list[dict]:
    """The ``K`` job descriptors of a compiled plan sharded ``K`` ways.

    ``trace`` is an optional propagation carrier (``{"id", "parent"}``,
    see :func:`repro.telemetry.core.trace_carrier`) stamped onto each
    descriptor.  It is execution metadata only: job ids digest just the
    request, so traced and untraced enqueues of the same workload collide
    on the same deterministic ids.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if priority not in PRIORITIES:
        raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
    request = plan.request
    if request.stopping is not None and shards > 1:
        raise InvalidParameterError(
            "a stopping-rule request cannot be trial-sharded (the stopping "
            "decision at trial t needs all earlier samples); submit it with "
            "shards=1, or derive fixed per-point budgets from a pilot round "
            "(plan_variance_budgets / fleet run --target-ci)"
        )
    min_trials = (
        min(request.trials) if isinstance(request.trials, tuple) else request.trials
    )
    if request.kind != "experiment" and shards > min_trials:
        raise ValueError(
            f"shards ({shards}) exceeds trials ({min_trials}): "
            f"some shards would be empty"
        )
    digest = _workload_digest(request.as_dict())
    prefix = _PRIORITY_PREFIX[priority]
    payloads = []
    for index in range(shards):
        job_id = f"{prefix}-{request.kind}-{digest}-{index:03d}of{shards:03d}"
        payload = {
            "id": job_id,
            "kind": request.kind,
            "priority": priority,
            "request": request.as_dict(),
            "shard": [index, shards],
            "engine": _engine_config(engine),
            "store": f"stores/{job_id}",
        }
        if trace:
            payload["trace"] = dict(trace) if isinstance(trace, dict) else {"id": str(trace)}
        payloads.append(payload)
    return payloads


def execute_job(payload: dict, spool: JobSpool) -> dict:
    """Run one claimed job into its own result store; returns outcome stats.

    This is the worker's execution hook.  The descriptor's request compiles
    through :func:`repro.api.compile_request` and its shard runs through
    :meth:`CompiledPlan.run <repro.api.CompiledPlan.run>` — the same call
    the CLI's ``--shard i/K`` path makes — so a fleet-executed shard's store
    records are byte-identical to the records the CLI writes.
    """
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(f"job kind must be one of {JOB_KINDS}, got {kind!r}")
    # Adopt the descriptor's trace carrier (a no-op scope when untraced or
    # when the worker loop already attached it around the lease).
    # The field is named ``workload`` (not ``kind``): span fields merge into
    # the record, and a ``kind`` field would clobber the ``"kind": "span"``
    # discriminator every telemetry reader filters on.
    with tracectx.attach_carrier(payload.get("trace")), telemetry.span(
        "job.execute", job=payload.get("id"), workload=kind
    ):
        plan = compile_request(request_from_payload(payload))
        store = ResultStore(spool.resolve(payload["store"]))
        engine = engine_from_config(payload.get("engine"), store=store)
        shard = (int(payload["shard"][0]), int(payload["shard"][1]))
        batches = plan.run(engine, shard=shard).values()
        return {
            "jobs": len(batches),
            "trials": sum(batch.num_trials for batch in batches),
            "cached": sum(1 for batch in batches if batch.from_cache),
        }

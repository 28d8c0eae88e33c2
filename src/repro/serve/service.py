"""The ``repro serve`` service core: read-through simulation-as-a-service.

Framework-free on purpose — :class:`SimulationService` speaks plain dicts
in and :class:`ServeResult` (status + JSON payload + headers) out, and the
stdlib HTTP adapter in :mod:`repro.serve.http` is a thin shell around it,
so the whole request lifecycle is unit-testable without sockets.

The service is a read-through cache over the platform:

* Every request compiles once through :func:`repro.api.compile_request` at
  the boundary; malformed requests die there as structured 400s.
* **Warm** requests — every expected store key already present in the
  service's :class:`~repro.engine.ResultStore` — are answered by pure
  assembly from :meth:`CompiledPlan.records
  <repro.api.CompiledPlan.records>`: zero simulation, ``serve.cache.hit``.  Because
  store keys are content-addressed over the full request identity, the
  digest of the key list is a correct ETag: ``If-None-Match`` answers 304
  without even touching record bodies.
* **Cold** requests shard the same plan into deterministic-id fleet jobs
  (:func:`repro.fleet.jobs.request_job_payloads`) and land on the spool for
  whatever workers drain it; the caller gets a 202 with a ticket (a digest
  of the canonical request) and polls ``GET /v1/requests/<ticket>`` until
  the per-job stores merge into the service store and assembly succeeds.
  Tickets persist as files under the spool, so a restarted server still
  answers polls for jobs enqueued by its predecessor.
* A bounded in-flight queue applies **backpressure**: when pending+active
  spool jobs reach ``max_queue``, cold requests get 429 + ``Retry-After``
  instead of piling up.  Per-request ``priority`` classes map onto the
  spool's sorted-id claim order.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.api import (
    CompiledPlan,
    InvalidParameterError,
    RequestError,
    WorkRequest,
    compile_request,
)
from repro.engine import MergeConflictError, ResultStore
from repro.experiments.pipeline import MissingRecordError
from repro.fleet.jobs import DEFAULT_PRIORITY, PRIORITIES, request_job_payloads
from repro.fleet.queue import JobSpool
from repro.fleet.status import spool_snapshot
from repro.serve import DEFAULT_MAX_QUEUE
from repro.telemetry import core as telemetry
from repro.telemetry import trace as tracectx
from repro.telemetry.timeseries import TelemetryTailer

_TICKETS_DIR = "tickets"

#: Shape accepted for a client-supplied trace id (hint field ``"trace"``).
_TRACE_ID_MAX_LENGTH = 64


def _validated_trace(value: object) -> Optional[str]:
    """A client trace id, validated; ``None`` when absent (server mints one)."""
    if value is None:
        return None
    if (
        not isinstance(value, str)
        or not value
        or len(value) > _TRACE_ID_MAX_LENGTH
        or not all(ch.isalnum() or ch in "-_" for ch in value)
    ):
        raise InvalidParameterError(
            f"trace must be a short alphanumeric id "
            f"(max {_TRACE_ID_MAX_LENGTH} chars), got {value!r}"
        )
    return value


@dataclass(frozen=True)
class ServeResult:
    """One service answer: HTTP status, JSON payload (or None), headers."""

    status: int
    payload: Optional[dict]
    headers: dict = field(default_factory=dict)


def request_ticket(request: WorkRequest) -> str:
    """Deterministic ticket of a request: a digest of its canonical JSON."""
    return hashlib.sha256(request.to_json().encode("utf-8")).hexdigest()[:16]


def plan_etag(plan) -> str:
    """The ETag of a compiled plan: a digest of its content-addressed keys.

    The store keys already hash the complete request identity (model,
    parameters, trial count and every per-trial seed), and results are
    deterministic — so the key-list digest identifies the *response bytes*
    without needing the response to exist yet.  A cold request can 304.
    """
    digest = hashlib.sha256("\n".join(plan.store_keys).encode("utf-8")).hexdigest()
    return f'"{digest[:32]}"'


def _etag_matches(header: Optional[str], etag: str) -> bool:
    if header is None:
        return False
    candidates = [token.strip() for token in header.split(",")]
    return "*" in candidates or etag in candidates


def _error(status: int, error: object, **headers: str) -> ServeResult:
    kind = type(error).__name__ if isinstance(error, Exception) else "Error"
    return ServeResult(
        status, {"error": {"type": kind, "message": str(error)}}, dict(headers)
    )


class SimulationService:
    """Compile requests, answer warm ones from the store, spool cold ones."""

    def __init__(
        self,
        store: ResultStore,
        spool: JobSpool,
        max_queue: int = DEFAULT_MAX_QUEUE,
        default_shards: int = 1,
        engine_config: Optional[dict] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if default_shards < 1:
            raise ValueError(f"default_shards must be >= 1, got {default_shards}")
        self.store = store
        self.spool = spool
        self.max_queue = int(max_queue)
        self.default_shards = int(default_shards)
        self.engine_config = dict(engine_config or {})
        self._lock = threading.Lock()
        self._tailer: Optional[TelemetryTailer] = None
        self._tickets_dir = os.path.join(spool.root, _TICKETS_DIR)
        os.makedirs(self._tickets_dir, exist_ok=True)
        spool.write_config()

    # -------------------------------------------------------------- #
    # endpoints
    # -------------------------------------------------------------- #
    def submit(self, body: object, if_none_match: Optional[str] = None) -> ServeResult:
        """POST /v1/requests — warm 200/304, cold 202, full 429, bad 400.

        Every submission runs under a trace scope: the client may carry its
        own id in the ``"trace"`` hint field (popped with the other
        execution hints, so it never perturbs tickets/ETags/store keys),
        otherwise the service mints one.  The id is echoed in the
        ``X-Trace-Id`` response header and stamped into any spool jobs the
        request fans out to.
        """
        data = body
        try:
            if isinstance(body, dict):
                data = dict(body)
                trace_id = _validated_trace(data.pop("trace", None))
            else:
                trace_id = None
        except RequestError as error:
            telemetry.count("serve.requests")
            telemetry.count("serve.request.invalid")
            return _error(400, error)
        trace_id = trace_id or tracectx.mint_trace_id()
        with tracectx.attach_trace(trace_id):
            result = self._submit_traced(data, if_none_match, trace_id)
        result.headers.setdefault("X-Trace-Id", trace_id)
        return result

    def _submit_traced(
        self, body: object, if_none_match: Optional[str], trace_id: str
    ) -> ServeResult:
        with telemetry.span("serve.request", endpoint="submit"):
            telemetry.count("serve.requests")
            try:
                request, shards, priority = self._parse_submission(body)
                plan = compile_request(request)
            except RequestError as error:
                telemetry.count("serve.request.invalid")
                return _error(400, error)
            etag = plan_etag(plan)
            if _etag_matches(if_none_match, etag):
                telemetry.count("serve.cache.hit")
                return ServeResult(304, None, {"ETag": etag})
            payload = self._assemble_if_warm(plan)
            if payload is not None:
                telemetry.count("serve.cache.hit")
                return ServeResult(200, payload, {"ETag": etag, "X-Cache": "hit"})
            telemetry.count("serve.cache.miss")
            return self._enqueue_cold(plan, shards, priority, etag, trace_id)

    def poll(self, ticket: str, if_none_match: Optional[str] = None) -> ServeResult:
        """GET /v1/requests/<ticket> — 200 done, 202 pending, 500 failed."""
        record = self._read_ticket(ticket)
        trace_id = (record or {}).get("trace")
        with tracectx.attach_trace(trace_id):
            result = self._poll_traced(ticket, record, if_none_match)
        if trace_id:
            result.headers.setdefault("X-Trace-Id", trace_id)
        return result

    def _poll_traced(
        self, ticket: str, record: Optional[dict], if_none_match: Optional[str]
    ) -> ServeResult:
        with telemetry.span("serve.request", endpoint="poll"):
            if record is None:
                return _error(404, f"unknown ticket {ticket!r}")
            plan = compile_request(WorkRequest.from_dict(record["request"]))
            etag = plan_etag(plan)
            if _etag_matches(if_none_match, etag):
                telemetry.count("serve.cache.hit")
                return ServeResult(304, None, {"ETag": etag})
            payload = self._assemble_if_warm(plan)
            if payload is not None:
                telemetry.count("serve.cache.hit")
                return ServeResult(200, payload, {"ETag": etag, "X-Cache": "hit"})

            states: dict[str, list[str]] = {}
            for job_id in record["jobs"]:
                state = self.spool.state_of(job_id) or "missing"
                states.setdefault(state, []).append(job_id)
            if states.get("failed"):
                errors = {
                    job_id: str(
                        self.spool.read_job("failed", job_id).get(
                            "last_error", "unknown error"
                        )
                    )
                    for job_id in states["failed"]
                }
                return ServeResult(
                    500, {"status": "failed", "ticket": ticket, "errors": errors}
                )
            if states.get("done") and not states.get("jobs") and not states.get("active"):
                self._merge_job_stores(record)
                payload = self._assemble_if_warm(plan)
                if payload is not None:
                    telemetry.count("serve.cache.fill")
                    return ServeResult(200, payload, {"ETag": etag, "X-Cache": "fill"})
            return ServeResult(
                202,
                {
                    "status": "pending",
                    "ticket": ticket,
                    "jobs": {state: len(ids) for state, ids in sorted(states.items())},
                },
                {"ETag": etag},
            )

    def status(self) -> ServeResult:
        """GET /v1/status — spool progress, store size, queue occupancy."""
        with telemetry.span("serve.request", endpoint="status"):
            counts = self.spool.counts()
            return ServeResult(
                200,
                {
                    "spool": spool_snapshot(self.spool),
                    "store": {"path": self.store.path, "records": len(self.store)},
                    "queue": {
                        "max_queue": self.max_queue,
                        "in_flight": counts["jobs"] + counts["active"],
                        "default_shards": self.default_shards,
                    },
                    "tickets": len(os.listdir(self._tickets_dir)),
                    "metrics": telemetry.metrics_snapshot(),
                },
            )

    def health(self) -> ServeResult:
        """GET /healthz — liveness plus the cheap dependency probes.

        Reports the package version, whether the spool directory is
        reachable (exists and is listable) and whether the store directory
        is writable — enough for a dashboard or external monitor to tell
        "the process is up" from "the process is up but cannot take work".
        Degraded probes turn the status into a 503 so plain HTTP checks
        need no body parsing.
        """
        from repro import __version__

        spool_root = self.spool.root
        spool_reachable = os.path.isdir(spool_root) and os.access(
            spool_root, os.R_OK | os.X_OK
        )
        store_dir = os.path.dirname(self.store.path) or "."
        store_writable = os.path.isdir(store_dir) and os.access(store_dir, os.W_OK)
        ok = spool_reachable and store_writable
        return ServeResult(
            200 if ok else 503,
            {
                "ok": ok,
                "version": __version__,
                "spool": {"path": spool_root, "reachable": spool_reachable},
                "store": {"path": self.store.path, "writable": store_writable},
            },
        )

    def metrics_text(self) -> str:
        """GET /metrics — Prometheus text exposition of live platform state.

        Combines two sources: the service process's own in-memory metrics
        registry (``serve.*`` counters, which are only flushed to disk at
        shutdown) and an incremental tail of the shared telemetry
        directory, which carries the fleet side — worker job spans, queue
        transitions, closed processes' flushed registries.  Without an
        active ``--telemetry`` directory the exposition still renders the
        live in-process registry.
        """
        from repro import __version__

        active = telemetry.active()
        directory = getattr(active, "directory", None)
        if directory is None:
            # No shared directory: tail a path that never exists so the
            # exposition is purely the live snapshot.
            directory = os.path.join(self.spool.root, "_no-telemetry")
        with self._lock:
            if self._tailer is None or self._tailer.directory != directory:
                self._tailer = TelemetryTailer(directory)
            return self._tailer.exposition(
                extra=telemetry.metrics_snapshot(), version=__version__
            )

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _parse_submission(self, body: object) -> tuple[WorkRequest, int, str]:
        """Split execution hints (shards, priority) from the request identity.

        The hints shape *how* a cold request executes, never *what* it
        computes — they are popped before :class:`WorkRequest` parsing so
        they cannot perturb tickets, ETags or store keys.
        """
        if not isinstance(body, dict):
            raise InvalidParameterError(
                f"the request body must be a JSON object, got {type(body).__name__}"
            )
        data = dict(body)
        shards = data.pop("shards", self.default_shards)
        priority = data.pop("priority", DEFAULT_PRIORITY)
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise InvalidParameterError(f"shards must be an integer >= 1, got {shards!r}")
        if priority not in PRIORITIES:
            raise InvalidParameterError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        return WorkRequest.from_dict(data), shards, priority

    def _assemble_if_warm(self, plan: CompiledPlan) -> Optional[dict]:
        """The assembled result payload, or None if any record is missing."""
        try:
            return plan.assemble(plan.records(self.store))
        except MissingRecordError:
            return None

    def _enqueue_cold(
        self, plan: CompiledPlan, shards: int, priority: str, etag: str, trace_id: str
    ) -> ServeResult:
        request = plan.request
        try:
            payloads = request_job_payloads(
                plan, shards, engine=self.engine_config, priority=priority,
                trace=telemetry.trace_carrier(),
            )
        except ValueError as error:
            telemetry.count("serve.request.invalid")
            return _error(400, error)
        with self._lock:
            counts = self.spool.counts()
            in_flight = counts["jobs"] + counts["active"]
            if in_flight >= self.max_queue:
                telemetry.count("serve.backpressure")
                return _error(
                    429,
                    f"the in-flight queue is full ({in_flight}/{self.max_queue} "
                    f"jobs); retry once workers drain it",
                    **{"Retry-After": "1"},
                )
            enqueued = 0
            for payload in payloads:
                try:
                    self.spool.enqueue(payload)
                    enqueued += 1
                except ValueError:
                    # Deterministic ids: the job is already spooled (an
                    # identical earlier request) — share it, don't double it.
                    telemetry.count("serve.enqueue.duplicate")
            ticket = request_ticket(request)
            self._write_ticket(
                {
                    "ticket": ticket,
                    "request": request.as_dict(),
                    "jobs": [payload["id"] for payload in payloads],
                    "shards": shards,
                    "priority": priority,
                    "trace": trace_id,
                }
            )
        if enqueued:
            telemetry.count("serve.enqueue", enqueued)
        location = f"/v1/requests/{ticket}"
        return ServeResult(
            202,
            {
                "status": "pending",
                "ticket": ticket,
                "location": location,
                "trace": trace_id,
            },
            {"Location": location, "ETag": etag},
        )

    def _merge_job_stores(self, record: dict) -> None:
        """Fan a completed ticket's per-job stores into the service store."""
        with self._lock:
            sources = [
                self.spool.resolve(f"stores/{job_id}") for job_id in record["jobs"]
            ]
            sources = [path for path in sources if os.path.isdir(path)]
            if not sources:
                return
            with telemetry.span(
                "serve.merge", ticket=record["ticket"], sources=len(sources)
            ):
                try:
                    self.store.merge(*sources)
                except (MergeConflictError, FileNotFoundError):
                    # Leave the ticket pending; the next poll (or a re-POST
                    # after the operator repairs the stores) retries.
                    telemetry.count("serve.merge.conflict")

    def _ticket_path(self, ticket: str) -> str:
        safe = "".join(ch for ch in ticket if ch.isalnum())
        return os.path.join(self._tickets_dir, f"{safe}.json")

    def _read_ticket(self, ticket: str) -> Optional[dict]:
        try:
            with open(self._ticket_path(ticket), encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def _write_ticket(self, record: dict) -> None:
        path = self._ticket_path(record["ticket"])
        temp = f"{path}.tmp{os.getpid()}"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.write("\n")
        os.replace(temp, path)

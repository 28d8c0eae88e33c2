"""The fleet coordinator: compile a workload, drive the spool, fan in.

``repro fleet run sweep|experiment`` is this module: it compiles a sweep or
experiment workload into ``K`` shard-job descriptors
(:mod:`repro.fleet.jobs`), enqueues them into a spool, optionally spawns
``N`` local worker processes (``repro worker --spool … --exit-when-empty``),
monitors the spool — requeueing expired leases and replacing crashed local
workers — and, once every job has reached a terminal state, fans in: the
per-job stores are unioned with :meth:`ResultStore.merge
<repro.engine.store.ResultStore.merge>` (which reassembles the shard groups
into full batch records), the merged store is checked for completeness
against the workload's expected keys, and the sweep summary or experiment
report is rebuilt purely from store records
(:meth:`CompiledPlan.records <repro.api.CompiledPlan.records>`).  The
request is compiled once, by the caller, and that one plan feeds the job
descriptors, the ``--resume`` check and the fan-in check.

Because every execution path below the coordinator is the engine's existing
shard machinery, a fleet run's merged store — and the report assembled from
it — is byte-identical to a one-shot unsharded run of the same workload,
whatever the worker count, machine count, crash history or lease-expiry
requeues along the way.

With ``local_workers=0`` the coordinator drives an *external* fleet: start
``repro worker --spool DIR`` on any number of machines sharing the spool
directory, and the coordinator only enqueues, monitors and merges.

Variance-aware sizing (:func:`plan_variance_budgets`) runs a small pilot
round per sweep point, estimates each point's sample variance, and derives
a *fixed-count* request whose per-point trial budgets hit a target CI
half-width — spending fleet hours where the estimator is noisiest while
keeping every downstream path (sharding, merging, byte-identity) exactly
the machinery above.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.api import CompiledPlan, WorkRequest, compile_request
from repro.engine import Engine, MergeReport, ResultStore
from repro.fleet.queue import JobSpool
from repro.telemetry import core as telemetry
from repro.telemetry import trace as tracectx
from repro.telemetry.log import get_logger
from repro.util.stats import z_score

_logger = get_logger("fleet")


class FleetError(RuntimeError):
    """A fleet run could not produce a complete, verified result."""


@dataclass(frozen=True)
class FleetOutcome:
    """Terminal state of one fleet run's execution phase."""

    done: tuple[str, ...]
    failed: tuple[str, ...]
    requeued: tuple[str, ...]
    elapsed_seconds: float
    errors: dict[str, str] = field(default_factory=dict)
    #: Trace id the run executed under (``repro telemetry trace <id>``).
    trace: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether every job completed successfully."""
        return not self.failed


def spawn_local_worker(
    spool_dir: str,
    poll: float = 0.2,
    telemetry_dir: Optional[str] = None,
    profile: bool = False,
    log_level: Optional[str] = None,
) -> subprocess.Popen:
    """Start one drain-mode worker process against ``spool_dir``.

    The worker runs ``repro worker --spool … --exit-when-empty`` through the
    same interpreter.  The directory this very package was imported from is
    prepended to the child's ``PYTHONPATH``, so source checkouts (where
    ``repro`` is on ``sys.path`` but not installed) spawn working workers
    exactly like installed packages do.

    The coordinator's observability settings propagate: a ``telemetry_dir``
    becomes the child's ``--telemetry`` (each worker writes its own
    per-process event file there), ``profile`` its ``--profile``, and
    ``log_level`` its ``--log-level``.
    """
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--spool",
        str(spool_dir),
        "--exit-when-empty",
        "--poll",
        str(poll),
    ]
    if telemetry_dir is not None:
        command.extend(["--telemetry", str(telemetry_dir)])
    if profile:
        command.append("--profile")
    if log_level is not None:
        command.extend(["--log-level", str(log_level)])
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else os.pathsep.join([package_root, existing])
    )
    return subprocess.Popen(command, env=env)


def _job_store_complete(spool: JobSpool, plan: CompiledPlan, payload: dict) -> bool:
    """Whether a done job's own store really holds every record it owes."""
    store_dir = spool.resolve(payload["store"])
    if not os.path.isdir(store_dir):
        return False
    store = ResultStore(store_dir)
    index, count = payload["shard"]
    return all(key in store for key in plan.shard_keys(index, count))


def _enqueue_payloads(
    spool: JobSpool, plan: CompiledPlan, payloads: Sequence[dict], resume: bool, log
) -> None:
    """Enqueue a workload, reusing a partially drained spool when resuming.

    Without ``resume`` the spool must be fresh for this workload — a
    duplicate deterministic id is an error.  With it, each job's current
    state decides: ``done/`` jobs whose stores hold their expected shard
    records are kept as-is (their results merge in at fan-in), pending and
    active jobs are left for the workers already draining them, and failed
    — or done-but-incomplete — jobs are resurrected with a fresh retry
    budget.  Only genuinely missing jobs are enqueued.
    """
    with telemetry.span("fleet.enqueue", jobs=len(payloads), resume=resume):
        # Stamp the run's trace carrier onto every descriptor here, inside
        # the enqueue span, so worker.job spans parent on it cross-process.
        carrier = telemetry.trace_carrier()
        if carrier is not None:
            for payload in payloads:
                payload.setdefault("trace", dict(carrier))
        spool.write_config()
        if not resume:
            for payload in payloads:
                spool.enqueue(payload)
            log(f"fleet: enqueued {len(payloads)} job(s) into {spool.root}")
            return
        enqueued = reused = resurrected = 0
        for payload in payloads:
            state = spool.state_of(payload["id"])
            if state == "done" and _job_store_complete(spool, plan, payload):
                reused += 1
            elif state in ("done", "failed"):
                spool.resurrect(payload["id"], state)
                resurrected += 1
            elif state in ("jobs", "active"):
                reused += 1
            else:
                spool.enqueue(payload)
                enqueued += 1
        log(
            f"fleet: resumed {spool.root} — {reused} job(s) reused, "
            f"{resurrected} resurrected, {enqueued} enqueued"
        )


def run_fleet(
    spool: JobSpool,
    plan: CompiledPlan,
    payloads: Sequence[dict],
    local_workers: int = 0,
    poll: float = 0.2,
    max_wait: Optional[float] = None,
    log=None,
    telemetry_dir: Optional[str] = None,
    profile: bool = False,
    log_level: Optional[str] = None,
    resume: bool = False,
    trace: Optional[str] = None,
) -> FleetOutcome:
    """Enqueue ``payloads``, drive the spool until drained, report the outcome.

    Parameters
    ----------
    spool:
        The (configured) job spool; its lease/retry settings are persisted
        so external workers joining later agree on the clock.
    plan:
        The compiled workload; ``resume`` checks done jobs' stores against
        its shard keys.
    payloads:
        The plan's job descriptors (:func:`repro.fleet.jobs.request_job_payloads`).
    local_workers:
        Drain-mode worker processes to spawn locally (0 = external fleet:
        the operator runs ``repro worker`` wherever the spool is mounted).
    poll:
        Monitor sleep between spool scans.
    max_wait:
        Optional wall-clock cap; exceeding it raises :class:`FleetError`
        (the spool is left intact for ``repro fleet status`` forensics).
    log:
        Progress sink; ``None`` uses the ``repro.fleet`` logger at INFO.
    telemetry_dir / profile / log_level:
        Observability settings forwarded to every spawned local worker (see
        :func:`spawn_local_worker`).
    resume:
        Reuse a partially drained spool: completed jobs (with verified
        stores) keep their results, failed or incomplete ones are
        re-enqueued, and only missing jobs are added — instead of rejecting
        the workload's deterministic ids as duplicates.
    trace:
        Optional trace id for the run; ``None`` adopts the thread's already
        attached scope or mints a fresh id.  Every fleet span, stamped job
        descriptor and therefore every worker/engine span downstream
        carries it — ``repro telemetry trace <id>`` reconstructs the run.
    """
    if local_workers < 0:
        raise ValueError(f"local_workers must be >= 0, got {local_workers}")
    if log is None:
        log = _logger.info
    trace_id = trace or tracectx.current_trace_id() or tracectx.mint_trace_id()

    def _spawn() -> subprocess.Popen:
        return spawn_local_worker(
            spool.root,
            poll=poll,
            telemetry_dir=telemetry_dir,
            profile=profile,
            log_level=log_level,
        )

    with tracectx.attach_trace(trace_id):
        _enqueue_payloads(spool, plan, payloads, resume, log)

        started = time.perf_counter()
        requeued: list[str] = []
        workers: list[subprocess.Popen] = []
        # Crashed local workers are replaced (a drain-mode worker only exits
        # voluntarily once the spool is drained); the overall retry budget
        # bounds how much work replacements can possibly redo.
        respawn_budget = max(1, len(payloads)) * spool.max_attempts
        try:
            with telemetry.span(
                "fleet.drain", jobs=len(payloads), local_workers=local_workers
            ) as drain_span:
                workers = [_spawn() for _ in range(local_workers)]
                while not spool.is_drained():
                    requeued.extend(spool.requeue_expired())
                    if local_workers:
                        alive = [proc for proc in workers if proc.poll() is None]
                        if not alive and not spool.is_drained():
                            if respawn_budget <= 0:
                                raise FleetError(
                                    f"all local workers exited with jobs outstanding in "
                                    f"{spool.root} and the respawn budget is exhausted"
                                )
                            respawn_budget -= 1
                            log("fleet: all local workers exited early; spawning a replacement")
                            workers.append(_spawn())
                    if max_wait is not None and time.perf_counter() - started > max_wait:
                        raise FleetError(
                            f"fleet run exceeded max_wait={max_wait}s with "
                            f"{spool.counts()} — inspect with: repro fleet status {spool.root}"
                        )
                    time.sleep(poll)
                drain_span.add(requeued=len(requeued))
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
            for proc in workers:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                    proc.kill()

        failed = spool.failed_ids()
        errors = {}
        for job_id in failed:
            descriptor = spool.read_job("failed", job_id)
            errors[job_id] = str(descriptor.get("last_error", "unknown error"))
        return FleetOutcome(
            done=tuple(spool.done_ids()),
            failed=tuple(failed),
            requeued=tuple(requeued),
            elapsed_seconds=time.perf_counter() - started,
            errors=errors,
            trace=trace_id,
        )


def merge_fleet_stores(
    spool: JobSpool, plan: CompiledPlan, payloads: Sequence[dict], destination: ResultStore
) -> MergeReport:
    """Fan in: union every job's store into ``destination`` and verify it.

    Merging reassembles the shard groups into full batch records, and a
    compaction leaves the store in canonical (sorted) form.  The merged
    store is then checked against the plan's parent keys, so an incomplete
    fan-in fails loudly naming the missing slice instead of yielding a
    silently partial store.
    """
    with telemetry.span("fleet.merge", sources=len(payloads)) as merge_span:
        report = destination.merge(*[spool.resolve(p["store"]) for p in payloads])
        destination.compact()
        missing = [key for key in plan.store_keys if key not in destination]
        if missing:
            raise FleetError(
                f"merged store {destination.path} is missing {len(missing)} expected "
                f"batch record(s); first missing key: {missing[0]}"
            )
        merge_span.add(records=report.records, assembled=report.assembled)
        return report


def plan_variance_budgets(
    request: WorkRequest,
    target_halfwidth: float,
    engine: Optional[Engine] = None,
    pilot_trials: int = 16,
    confidence: float = 0.95,
    min_trials: Optional[int] = None,
) -> tuple[WorkRequest, dict]:
    """Size per-point trial budgets from a pilot round's variance estimates.

    Runs ``pilot_trials`` trials at every point of a sweep ``request``
    (store-less, so destination stores never see pilot records), estimates
    each point's sample variance, and returns a *derived request* whose
    per-point trials list is ``ceil((z * std / target_halfwidth)^2)`` —
    the fixed count at which the normal-approximation CI half-width meets
    the target — clamped to ``[min_trials, budget]`` where ``budget`` is
    the original request's (possibly per-point) trial count.

    Because each point's trial seeds are ``SeedSequence`` children of that
    point's own child sequence (prefix-stable in the trial count), the
    pilot's trials are exactly the first ``pilot_trials`` trials of the
    sized run — the pilot measures the very stream it budgets.  The derived
    request is an ordinary fixed-count request: it shards, merges and
    byte-reproduces through the unchanged fleet machinery, which is how the
    fleet delivers adaptivity without trial-sharding a stopping rule.

    Returns ``(derived_request, pilot_report)``; the report records the
    per-point pilot statistics and budgets for rendering and telemetry.
    """
    if request.kind != "sweep":
        raise ValueError(
            f"variance-aware sizing applies to sweep requests, got {request.kind!r}"
        )
    if request.stopping is not None:
        raise ValueError(
            "variance-aware sizing replaces the stopping rule for fleet runs; "
            "pass a fixed-budget request plus target_halfwidth"
        )
    if not target_halfwidth > 0:
        raise ValueError(f"target_halfwidth must be > 0, got {target_halfwidth}")
    if pilot_trials < 2:
        raise ValueError(f"pilot_trials must be >= 2, got {pilot_trials}")
    floor = pilot_trials if min_trials is None else max(int(min_trials), 2)
    if engine is None:
        engine = Engine()
    if engine.store is not None:
        raise ValueError(
            "the pilot engine must be store-less: pilot records would pollute "
            "the destination store with short-budget batches"
        )
    plan = compile_request(request)
    caps = (
        list(request.trials)
        if isinstance(request.trials, tuple)
        else [request.trials] * len(plan.jobs)
    )
    z = z_score(confidence)
    budgets: list[int] = []
    points: list[dict] = []
    with telemetry.span(
        "fleet.pilot", points=len(plan.jobs), pilot_trials=pilot_trials
    ) as pilot_span:
        for job, cap in zip(plan.jobs, caps):
            pilot_spec = replace(job.spec, num_trials=min(pilot_trials, cap))
            batch = engine.run(pilot_spec)
            samples = batch.flooding_times
            mean = sum(samples) / len(samples)
            variance = (
                sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
                if len(samples) > 1
                else 0.0
            )
            std = math.sqrt(variance)
            required = (
                floor if std == 0.0 else math.ceil((z * std / target_halfwidth) ** 2)
            )
            budget = max(floor, min(required, cap))
            budgets.append(budget)
            points.append(
                {
                    "tag": job.tag,
                    "pilot_trials": len(samples),
                    "pilot_mean": mean,
                    "pilot_std": std,
                    "required_trials": required,
                    "budget": budget,
                    "cap": cap,
                }
            )
            telemetry.count("fleet.pilot.trials", len(samples))
        pilot_span.add(total_budget=sum(budgets))
    derived = replace(request, trials=tuple(budgets))
    report = {
        "target_halfwidth": float(target_halfwidth),
        "confidence": float(confidence),
        "pilot_trials": pilot_trials,
        "points": points,
        "total_budget": sum(budgets),
        "fixed_total": sum(caps),
    }
    return derived, report

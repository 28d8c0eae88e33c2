"""Live fleet dashboard: the rendering and refresh loop of ``repro fleet top``.

``repro fleet status`` is a one-shot forensic scan; this module is the
watching counterpart — a terminal dashboard that refreshes a compact frame
showing where a draining spool is *right now*:

* queue depths (pending / active / done / failed) and the drain ETA,
* windowed throughput, requeue rate and job latency quantiles from a
  :class:`~repro.telemetry.timeseries.TelemetryTailer` over the fleet's
  shared ``--telemetry`` directory (omitted gracefully when the fleet runs
  without telemetry — the spool-derived panels still render),
* per-worker utilization (busy fraction of the sliding window) and lease
  heartbeat ages,
* the slowest in-flight jobs — the ones to stare at when a drain stalls.

The frame builder is split from the terminal loop on purpose:
:func:`gather_frame` folds a spool scan plus an optional tailer poll into a
plain dict, and :func:`render_frame` turns that dict into text — both pure
enough to unit-test without a TTY.  :func:`run_top` owns the ANSI screen
handling (plain stdlib, no curses dependency: home-and-clear per refresh)
and degrades to a single printed frame with ``--once`` or when stdout is
not a terminal.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.fleet.queue import JobSpool
from repro.fleet.status import SpoolStatus, spool_metrics, spool_status, status_as_dict
from repro.telemetry.timeseries import TelemetryTailer

#: Default seconds between dashboard refreshes.
DEFAULT_INTERVAL = 2.0

#: In-flight jobs shown in the "slowest" panel.
TOP_JOBS = 5

#: ANSI: cursor home + clear to end of screen (redraw without scrollback spam).
_CLEAR = "\x1b[H\x1b[J"


def gather_frame(
    spool: JobSpool,
    tailer: Optional[TelemetryTailer] = None,
    now: Optional[float] = None,
) -> dict:
    """One dashboard frame's data: spool scan + optional telemetry poll.

    Returns a JSON-able dict consumed by :func:`render_frame` (and usable
    directly for machine consumption; ``repro fleet top --once --json``
    prints exactly this).
    """
    now = time.time() if now is None else float(now)
    if tailer is not None:
        tailer.poll()
    status = spool_status(spool, now=now)
    metrics = spool_metrics(spool, status)
    frame: dict = {
        "now": now,
        "spool": status.root,
        "counts": status_as_dict(status)["counts"],
        "drained": status.drained,
        "workers": _worker_rows(status, tailer, now),
        "failed": [
            {"job": job.job_id, "attempts": job.attempts, "error": job.error}
            for job in status.failed
        ],
    }
    rate = metrics.jobs_per_second
    if tailer is not None:
        stats = tailer.window_stats(now=now)
        if stats["jobs_completed"]:
            rate = stats["jobs_per_second"]
        frame["window"] = stats
        frame["telemetry"] = {
            "directory": tailer.directory,
            "events": tailer.events_total,
            "traces": len(tailer.trace_ids),
            "skipped_lines": tailer.skipped_lines,
        }
        frame["in_flight"] = _slowest_in_flight(tailer, now)
    frame["jobs_per_second"] = rate
    frame["requeues"] = metrics.requeues
    remaining = len(status.pending) + len(status.active)
    frame["eta_seconds"] = remaining / rate if rate and remaining else None
    return frame


def _worker_rows(
    status: SpoolStatus, tailer: Optional[TelemetryTailer], now: float
) -> list[dict]:
    """Per-worker panel rows: lease state joined with windowed busy time.

    Workers appear if they hold a lease (spool view) *or* completed a job
    inside the window (telemetry view); the join key is the worker id,
    which :func:`~repro.fleet.worker.default_worker_id` makes the same
    ``<host>-<pid>`` string the telemetry process stamp uses.
    """
    rows: dict[str, dict] = {}
    for lease in status.active:
        name = lease.worker or "?"
        row = rows.setdefault(name, {"worker": name})
        row["job"] = lease.job_id
        row["lease_age_seconds"] = lease.lease_age_seconds
        row["heartbeat_age_seconds"] = lease.heartbeat_age_seconds
    if tailer is not None:
        busy = tailer.window_stats(now=now)["worker_busy_seconds"]
        window = tailer.window or 1.0
        for name, seconds in busy.items():
            row = rows.setdefault(name, {"worker": name})
            row["busy_fraction"] = min(1.0, seconds / window)
    return sorted(rows.values(), key=lambda row: row["worker"])


def _slowest_in_flight(tailer: TelemetryTailer, now: float) -> list[dict]:
    """The longest-running claimed-but-unfinished jobs, slowest first."""
    jobs = [
        {
            "job": job_id,
            "worker": info.get("worker"),
            "attempts": info.get("attempts"),
            "running_seconds": max(0.0, now - float(info.get("since", now))),
        }
        for job_id, info in tailer.active_jobs.items()
    ]
    jobs.sort(key=lambda job: -job["running_seconds"])
    return jobs[:TOP_JOBS]


def _bar(fraction: float, width: int = 10) -> str:
    filled = max(0, min(width, int(round(fraction * width))))
    return "#" * filled + "." * (width - filled)


def render_frame(frame: dict, width: int = 80) -> str:
    """Render one :func:`gather_frame` dict as dashboard text."""
    counts = frame["counts"]
    stamp = time.strftime("%H:%M:%S", time.localtime(frame["now"]))
    lines = [
        f"repro fleet top — {frame['spool']}  [{stamp}]"[:width],
        (
            f"jobs: {counts['total']} total | {counts['pending']} pending  "
            f"{counts['active']} active  {counts['done']} done  "
            f"{counts['failed']} failed"
            + ("  | drained" if frame["drained"] else "")
        )[:width],
    ]
    rate = frame.get("jobs_per_second")
    window = frame.get("window")
    parts = [f"throughput: {rate:.2f} jobs/s" if rate else "throughput: —"]
    if window is not None:
        parts.append(f"requeue rate {window['requeue_rate']:.2f}")
        if window["job_latency_count"]:
            parts.append(
                f"latency p50 {window['job_latency_p50_seconds']:.2f}s "
                f"p95 {window['job_latency_p95_seconds']:.2f}s"
            )
        parts.append(f"(window {window['window_seconds']:g}s)")
    elif frame.get("requeues"):
        parts.append(f"{frame['requeues']} requeue(s)")
    lines.append(("  ".join(parts))[:width])
    eta = frame.get("eta_seconds")
    remaining = counts["pending"] + counts["active"]
    if eta is not None:
        lines.append(f"eta: ~{eta:.0f}s for {remaining} remaining job(s)"[:width])
    elif remaining:
        lines.append(
            f"eta: unknown ({remaining} remaining job(s), no throughput yet)"[:width]
        )

    if frame["workers"]:
        lines.append("workers:")
        for row in frame["workers"]:
            detail = [f"  {row['worker']:<24}"]
            fraction = row.get("busy_fraction")
            if fraction is not None:
                detail.append(f"busy {_bar(fraction)} {fraction:4.0%}")
            heartbeat = row.get("heartbeat_age_seconds")
            if heartbeat is not None:
                detail.append(f"heartbeat {heartbeat:.1f}s ago")
            elif row.get("job"):
                detail.append("heartbeat never")
            if row.get("job"):
                detail.append(f"job {row['job']}")
            lines.append("  ".join(detail)[:width])
    in_flight = frame.get("in_flight")
    if in_flight:
        lines.append("in-flight (slowest first):")
        for job in in_flight:
            lines.append(
                f"  {job['job']}  worker={job.get('worker') or '?'}  "
                f"{job['running_seconds']:.1f}s  attempts={job.get('attempts')}"[:width]
            )
    if frame["failed"]:
        lines.append("failed:")
        for job in frame["failed"]:
            lines.append(
                f"  {job['job']}  attempts={job['attempts']}  {job['error']}"[:width]
            )
    telemetry = frame.get("telemetry")
    if telemetry is not None:
        lines.append(
            (
                f"telemetry: {telemetry['events']} events, "
                f"{telemetry['traces']} trace(s), "
                f"{telemetry['skipped_lines']} skipped line(s)  "
                f"[{telemetry['directory']}]"
            )[:width]
        )
    return "\n".join(lines) + "\n"


def run_top(
    spool_dir: str,
    telemetry_dir: Optional[str] = None,
    interval: float = DEFAULT_INTERVAL,
    once: bool = False,
    follow_until_drained: bool = False,
    width: int = 80,
    stream: Optional[TextIO] = None,
    clock=time.time,
    sleep=time.sleep,
) -> int:
    """The ``repro fleet top`` loop; returns a process exit code.

    Refreshes a full-screen frame every ``interval`` seconds until
    interrupted (Ctrl-C), the spool drains (with ``follow_until_drained``),
    or immediately after one frame with ``once``.  ``stream``, ``clock``
    and ``sleep`` are injection points for tests.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    stream = sys.stdout if stream is None else stream
    spool = JobSpool(spool_dir)
    tailer = TelemetryTailer(telemetry_dir) if telemetry_dir else None
    interactive = not once and getattr(stream, "isatty", lambda: False)()
    try:
        while True:
            frame = gather_frame(spool, tailer, now=clock())
            text = render_frame(frame, width=width)
            if interactive:
                stream.write(_CLEAR + text)
            else:
                stream.write(text)
            stream.flush()
            if once or (follow_until_drained and frame["drained"]):
                return 0
            sleep(interval)
    except KeyboardInterrupt:
        stream.write("\n")
        return 0

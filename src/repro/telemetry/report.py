"""Merge per-process telemetry event files into one run summary.

``repro telemetry report DIR`` is this module: every ``events-*.jsonl`` file
in a telemetry directory (one per process that ran with ``--telemetry DIR``)
is parsed, and the events are folded into a single report:

* **phase breakdown** — wall-clock totals per span name (engine batches,
  worker jobs, fleet fan-in phases);
* **store behaviour** — cache hit rate, puts, lock-wait aggregates;
* **worker utilization** — per process, busy time (job-span seconds) over
  the process's observed wall span;
* **slowest jobs** — the top-N ``worker.job`` / ``engine.run`` spans;
* **requeue forensics** — every ``queue.requeue`` / ``queue.failed`` event
  with its attempt count and error.

The module also holds the one reader and the one interpreter of event
files: :func:`read_events` parses lines and :class:`EventFold` folds
records.  The report is a fresh fold over whole files; the live
:class:`~repro.telemetry.timeseries.TelemetryTailer` behind ``/metrics``,
``telemetry export`` and ``fleet top`` is the same fold fed incrementally.

Parsing is tolerant: truncated last lines (a crashed process) are skipped,
unknown event kinds are counted but otherwise ignored — forensics must work
on exactly the runs that went wrong.
"""

from __future__ import annotations

import glob
import heapq
import json
import os
from collections import deque

from repro.telemetry.core import Telemetry

__all__ = ["format_report", "load_events", "summarize_events", "telemetry_report"]

#: Span names treated as "one unit of scheduled work" for utilization/slowest.
JOB_SPANS = ("worker.job", "engine.run", "engine.run_shard")


def event_paths(directory: str) -> list[str]:
    """The per-process event files of a telemetry directory, sorted."""
    return sorted(glob.glob(os.path.join(directory, "events-*.jsonl")))


def read_events(
    path: str, offset: int = 0, complete_lines: bool = False
) -> tuple[list[dict], int, int]:
    """Parse ``path`` from byte ``offset``: ``(records, skipped, end_offset)``.

    Blank lines are ignored; a line that is not JSON, or not a JSON object,
    is counted in ``skipped`` — forensics on a crashed run should say how
    much evidence went missing rather than silently reading past it.  A
    last line without a newline is parsed like any other (a crashed
    writer's torn half then counts as skipped), unless ``complete_lines``
    leaves it unread: a live writer may still be appending it.
    """
    with open(path, "rb") as handle:
        handle.seek(offset)
        chunk = handle.read()
    if complete_lines:
        chunk = chunk[: chunk.rfind(b"\n") + 1]
    records: list[dict] = []
    skipped = 0
    for raw in chunk.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError:  # undecodable or not JSON
            skipped += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped += 1  # parseable but not an event object
    return records, skipped, offset + len(chunk)


def load_events(directory: str, with_skipped: bool = False):
    """Every parseable event in ``directory``'s ``events-*.jsonl`` files.

    Events are returned in wall-clock order (the per-process files are
    already ordered; the merge sorts by the ``ts`` stamp).  With
    ``with_skipped=True`` the return value is ``(events, skipped)`` where
    ``skipped`` counts the corrupt or truncated lines that were dropped.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no telemetry directory at {directory}")
    events: list[dict] = []
    skipped = 0
    for path in event_paths(directory):
        records, bad, _ = read_events(path)
        events.extend(records)
        skipped += bad
    events.sort(key=lambda record: record.get("ts", 0.0))
    if with_skipped:
        return events, skipped
    return events


class EventFold:
    """The running state every telemetry view reads, built one record at a time.

    :meth:`ingest` is the one interpreter of event records: ``metrics``
    events merge into :attr:`registry` (an in-memory :class:`Telemetry`,
    so counters, gauges and timings fold exactly as a pool child's snapshot
    does), spans feed per-process busy time, per-name phases and the
    slowest ``top`` job spans, and queue events track transitions, claimed
    jobs and requeue records.  The timestamp deques feed the tailer's
    sliding window.
    """

    def __init__(self, top: int = 5) -> None:
        self.registry = Telemetry()
        self.events_total = 0
        self.trace_ids: set[str] = set()
        self.processes: dict[str, dict] = {}
        self.phases: dict[str, dict] = {}
        self.queue_transitions: dict[str, int] = {}
        self.requeue_records: list[dict] = []
        self.active_jobs: dict[str, dict] = {}
        self._top = top
        # min-heap of (duration, -seq, record), bounded so a long-lived tailer stays small
        self._slowest: list[tuple] = []
        self._completions: deque = deque()
        self._failures: deque = deque()
        self._requeues: deque = deque()
        self._job_samples: deque = deque()  # (end_ts, duration, process)

    #: Copies of the merged metrics of every ``metrics`` event folded so far.
    counters = property(lambda self: self.registry.metrics_snapshot()["counters"])
    gauges = property(lambda self: self.registry.metrics_snapshot()["gauges"])
    timings = property(lambda self: self.registry.metrics_snapshot()["timings"])

    @property
    def last_seen(self) -> dict:
        """Latest positive event timestamp per process."""
        return {
            process: entry["last_ts"]
            for process, entry in self.processes.items()
            if entry["last_ts"] > 0.0
        }

    def ingest(self, record: dict) -> None:
        """Fold one event record into every view's running state."""
        self.events_total += 1
        process = str(record.get("process", "?"))
        ts = float(record.get("ts", 0.0))
        entry = self.processes.setdefault(
            process, {"events": 0, "first_ts": ts, "last_ts": ts, "busy_seconds": 0.0}
        )
        entry["events"] += 1
        entry["first_ts"] = min(entry["first_ts"], ts)
        entry["last_ts"] = max(entry["last_ts"], ts)
        trace_id = record.get("trace")
        if trace_id:
            self.trace_ids.add(str(trace_id))

        kind = record.get("kind")
        name = str(record.get("name", "?"))
        job = record.get("job")
        if kind == "metrics":
            self.registry.merge_metrics(record)
        elif kind == "span":
            duration = float(record.get("duration_seconds", 0.0))
            phase = self.phases.setdefault(
                name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            phase["count"] += 1
            phase["total_seconds"] += duration
            phase["max_seconds"] = max(phase["max_seconds"], duration)
            if name in JOB_SPANS:
                full = len(self._slowest) >= self._top
                push = heapq.heappushpop if full else heapq.heappush
                push(self._slowest, (duration, -self.events_total, record))
            if name == "worker.job":
                entry["busy_seconds"] += duration
                self._job_samples.append((ts, duration, process))
                if job is not None:
                    self.active_jobs.pop(str(job), None)
        elif kind == "event":
            if name.startswith("queue."):
                self.queue_transitions[name] = self.queue_transitions.get(name, 0) + 1
            if name == "queue.claim" and job is not None:
                self.active_jobs[str(job)] = {
                    "worker": record.get("worker"),
                    "since": ts,
                    "attempts": record.get("attempts"),
                }
            elif name in ("queue.done", "queue.requeue", "queue.failed"):
                if job is not None:
                    self.active_jobs.pop(str(job), None)
                if name == "queue.done":
                    self._completions.append(ts)
                else:
                    bucket = self._requeues if name == "queue.requeue" else self._failures
                    bucket.append(ts)
                    self.requeue_records.append(record)


def summarize_events(events: list[dict], top: int = 5, skipped_lines: int = 0) -> dict:
    """Fold a merged event list into the report dict (see module docstring).

    ``skipped_lines`` is the unparseable-line count from
    :func:`load_events`; it is surfaced verbatim in the summary so both the
    text and ``--json`` report forms show how lossy the read was.
    """
    fold = EventFold(top)
    for record in events:
        fold.ingest(record)
    metrics = fold.registry.metrics_snapshot()
    counters, timings = metrics["counters"], metrics["timings"]

    for phase in fold.phases.values():
        phase["mean_seconds"] = (
            phase["total_seconds"] / phase["count"] if phase["count"] else 0.0
        )

    hits = counters.get("engine.store.hit", 0)
    misses = counters.get("engine.store.miss", 0)
    store = {
        "hits": hits,
        "misses": misses,
        "puts": counters.get("engine.store.put", 0),
        "hit_rate": hits / (hits + misses) if hits + misses else None,
        "lock_wait": timings.get("store.lock_wait_seconds"),
        "key": timings.get("store.key_seconds"),
    }

    workers = {}
    for process, entry in fold.processes.items():
        wall = entry["last_ts"] - entry["first_ts"]
        busy = entry["busy_seconds"]
        if busy:
            workers[process] = {
                "busy_seconds": busy,
                "wall_seconds": wall,
                "utilization": min(1.0, busy / wall) if wall > 0 else 1.0,
            }

    slowest_jobs = [
        {
            "name": record.get("name"),
            "job": record.get("job") or record.get("label"),
            "process": record.get("process"),
            "duration_seconds": float(record.get("duration_seconds", 0.0)),
        }
        # longest first; equal durations keep fold order (seq is negated)
        for _, _, record in sorted(fold._slowest, reverse=True)
    ]

    return {
        "events": fold.events_total,
        "skipped_lines": int(skipped_lines),
        "processes": fold.processes,
        "phases": fold.phases,
        "metrics": metrics,
        "store": store,
        "workers": workers,
        "slowest_jobs": slowest_jobs,
        "queue": fold.queue_transitions,
        "requeues": [
            {
                "name": record.get("name"),
                "job": record.get("job"),
                "attempts": record.get("attempts"),
                "error": record.get("error"),
            }
            for record in fold.requeue_records
        ],
    }


def telemetry_report(directory: str, top: int = 5) -> dict:
    """Load and summarize a telemetry directory in one call."""
    events, skipped = load_events(directory, with_skipped=True)
    return summarize_events(events, top=top, skipped_lines=skipped)


def format_report(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_events`' dict."""
    lines = [
        f"telemetry: {summary['events']} event(s) from "
        f"{len(summary['processes'])} process(es)"
    ]
    if summary.get("skipped_lines"):
        lines.append(
            f"warning: skipped {summary['skipped_lines']} corrupt/truncated "
            f"line(s) while reading event files"
        )

    if summary["phases"]:
        lines.append("phase wall-clock breakdown:")
        ordered = sorted(
            summary["phases"].items(), key=lambda kv: kv[1]["total_seconds"], reverse=True
        )
        for name, phase in ordered:
            lines.append(
                f"  {name:<24} x{phase['count']:<5} total {phase['total_seconds']:8.3f}s  "
                f"mean {phase['mean_seconds']:8.3f}s  max {phase['max_seconds']:8.3f}s"
            )

    store = summary["store"]
    if store["hits"] or store["misses"] or store["puts"]:
        rate = "n/a" if store["hit_rate"] is None else f"{store['hit_rate']:.0%}"
        lines.append(
            f"store: {store['hits']} hit(s), {store['misses']} miss(es), "
            f"{store['puts']} put(s)  (hit rate {rate})"
        )
        if store["lock_wait"]:
            wait = store["lock_wait"]
            lines.append(
                f"store lock wait: x{wait['count']} total {wait['total']:.4f}s "
                f"max {wait['max']:.4f}s"
            )
    if store["key"]:
        key = store["key"]
        lines.append(
            f"store key derivation: x{key['count']} total {key['total']:.4f}s "
            f"max {key['max']:.4f}s"
        )

    if summary["workers"]:
        lines.append("worker utilization:")
        for process, entry in sorted(summary["workers"].items()):
            lines.append(
                f"  {process:<32} busy {entry['busy_seconds']:8.3f}s / "
                f"{entry['wall_seconds']:8.3f}s  ({entry['utilization']:.0%})"
            )

    if summary["slowest_jobs"]:
        lines.append("slowest jobs:")
        for job in summary["slowest_jobs"]:
            lines.append(
                f"  {job['duration_seconds']:8.3f}s  {job['name']}  "
                f"{job['job'] or '?'}  [{job['process']}]"
            )

    if summary["queue"]:
        transitions = ", ".join(
            f"{name.split('.', 1)[1]}={count}"
            for name, count in sorted(summary["queue"].items())
        )
        lines.append(f"queue transitions: {transitions}")

    if summary["requeues"]:
        lines.append("requeue forensics:")
        for entry in summary["requeues"]:
            lines.append(
                f"  {entry['name']}  job={entry['job']}  "
                f"attempts={entry['attempts']}  {entry['error'] or ''}".rstrip()
            )

    kernels = {
        name.split(".")[-1]: int(value)
        for name, value in summary["metrics"]["counters"].items()
        if name.startswith("engine.backend.")
    }
    if kernels:
        lines.append(
            "kernel dispatch: "
            + ", ".join(f"{name}={count}" for name, count in sorted(kernels.items()))
        )
    return "\n".join(lines)

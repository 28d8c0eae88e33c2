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

Parsing is tolerant: truncated last lines (a crashed process) are skipped,
unknown event kinds are counted but otherwise ignored — forensics must work
on exactly the runs that went wrong.
"""

from __future__ import annotations

import glob
import json
import os

__all__ = ["format_report", "load_events", "summarize_events", "telemetry_report"]

#: Span names treated as "one unit of scheduled work" for utilization/slowest.
JOB_SPANS = ("worker.job", "engine.run", "engine.run_shard")


def load_events(directory: str, with_skipped: bool = False):
    """Every parseable event in ``directory``'s ``events-*.jsonl`` files.

    Events are returned in wall-clock order (the per-process files are
    already ordered; the merge sorts by the ``ts`` stamp).  With
    ``with_skipped=True`` the return value is ``(events, skipped)`` where
    ``skipped`` counts the corrupt or truncated lines that were dropped —
    forensics on a crashed run should say how much evidence went missing
    rather than silently reading past it.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no telemetry directory at {directory}")
    events: list[dict] = []
    skipped = 0
    for path in sorted(glob.glob(os.path.join(directory, "events-*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1  # truncated tail of a crashed process
                    continue
                if isinstance(record, dict):
                    events.append(record)
                else:
                    skipped += 1  # parseable but not an event object
    events.sort(key=lambda record: record.get("ts", 0.0))
    if with_skipped:
        return events, skipped
    return events


def merge_timing(into: dict, name: str, serialized: dict) -> None:
    """Fold one serialized timing aggregate into ``into[name]``.

    The one count/total/min/max fold of the package: the post-hoc report,
    the tailer's cumulative metrics and its live-registry overlay all merge
    timings through it.
    """
    aggregate = into.get(name)
    if aggregate is None:
        into[name] = dict(serialized)
        return
    aggregate["count"] += int(serialized["count"])
    aggregate["total"] += float(serialized["total"])
    aggregate["min"] = min(aggregate["min"], float(serialized["min"]))
    aggregate["max"] = max(aggregate["max"], float(serialized["max"]))
    aggregate["mean"] = aggregate["total"] / aggregate["count"] if aggregate["count"] else 0.0


def summarize_events(events: list[dict], top: int = 5, skipped_lines: int = 0) -> dict:
    """Fold a merged event list into the report dict (see module docstring).

    ``skipped_lines`` is the unparseable-line count from
    :func:`load_events`; it is surfaced verbatim in the summary so both the
    text and ``--json`` report forms show how lossy the read was.
    """
    processes: dict[str, dict] = {}
    phases: dict[str, dict] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    timings: dict[str, dict] = {}
    job_spans: list[dict] = []
    requeues: list[dict] = []
    queue_transitions: dict[str, int] = {}

    for record in events:
        process = str(record.get("process", "?"))
        ts = float(record.get("ts", 0.0))
        entry = processes.setdefault(
            process, {"events": 0, "first_ts": ts, "last_ts": ts, "busy_seconds": 0.0}
        )
        entry["events"] += 1
        entry["first_ts"] = min(entry["first_ts"], ts)
        entry["last_ts"] = max(entry["last_ts"], ts)

        kind = record.get("kind")
        if kind == "span":
            name = str(record.get("name", "?"))
            duration = float(record.get("duration_seconds", 0.0))
            phase = phases.setdefault(
                name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            phase["count"] += 1
            phase["total_seconds"] += duration
            phase["max_seconds"] = max(phase["max_seconds"], duration)
            if name in JOB_SPANS:
                job_spans.append(record)
                if name == "worker.job":
                    entry["busy_seconds"] += duration
        elif kind == "metrics":
            for name, value in record.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in record.get("gauges", {}).items():
                gauges[name] = value
            for name, serialized in record.get("timings", {}).items():
                merge_timing(timings, name, serialized)
        elif kind == "event":
            name = str(record.get("name", "?"))
            if name.startswith("queue."):
                queue_transitions[name] = queue_transitions.get(name, 0) + 1
            if name in ("queue.requeue", "queue.failed"):
                requeues.append(record)

    for phase in phases.values():
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
    for process, entry in processes.items():
        wall = entry["last_ts"] - entry["first_ts"]
        busy = entry["busy_seconds"]
        if busy:
            workers[process] = {
                "busy_seconds": busy,
                "wall_seconds": wall,
                "utilization": min(1.0, busy / wall) if wall > 0 else 1.0,
            }

    slowest = sorted(
        job_spans, key=lambda r: float(r.get("duration_seconds", 0.0)), reverse=True
    )[:top]
    slowest_jobs = [
        {
            "name": record.get("name"),
            "job": record.get("job") or record.get("label"),
            "process": record.get("process"),
            "duration_seconds": float(record.get("duration_seconds", 0.0)),
        }
        for record in slowest
    ]

    return {
        "events": len(events),
        "skipped_lines": int(skipped_lines),
        "processes": processes,
        "phases": phases,
        "metrics": {"counters": counters, "gauges": gauges, "timings": timings},
        "store": store,
        "workers": workers,
        "slowest_jobs": slowest_jobs,
        "queue": queue_transitions,
        "requeues": [
            {
                "name": record.get("name"),
                "job": record.get("job"),
                "attempts": record.get("attempts"),
                "error": record.get("error"),
            }
            for record in requeues
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

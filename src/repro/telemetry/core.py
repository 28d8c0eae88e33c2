"""Structured tracing and metrics with a provably invisible no-op default.

The telemetry layer gives the execution platform (engine → store → fleet)
shared observability primitives:

* **spans** — named durations with a monotonic start, a process-unique id
  and a parent id (nesting tracked per thread), recorded as one JSONL event
  each;
* **metrics** — counters, gauges and timing aggregates (count/total/min/max)
  accumulated in memory and flushed as a single ``metrics`` event on
  :meth:`Telemetry.close`;
* **events** — one-off structured facts (a queue transition, a merge
  summary).

Everything funnels through one :class:`Telemetry` instance per process,
writing a crash-safe per-process JSONL file (``events-<host>-<pid>.jsonl``,
append + flush per line, no cross-process locking needed) inside a shared
telemetry directory.  ``repro telemetry report DIR`` merges those files into
a run summary (:mod:`repro.telemetry.report`).

Design contract — **disabled means invisible**:

* the module-level helpers (:func:`span`, :func:`count`, :func:`gauge`,
  :func:`timing`, :func:`event`) are the only API instrumentation sites use;
  with no active telemetry each is a single global load and ``None`` check,
  so the default path stays within noise of the un-instrumented code
  (gated by the ``telemetry_overhead`` benchmark in
  ``benchmarks/bench_engine.py``);
* telemetry never touches a random stream and never writes into a result
  store, so enabling it cannot change any computed result — byte-identity
  of stores and reports with telemetry on vs off is pinned by tests and the
  CI ``telemetry-smoke`` job.

A :class:`Telemetry` constructed without a directory aggregates metrics in
memory and drops events: the engine's process-pool children use this to
collect kernel metrics and ship them back to the parent as a snapshot
(:meth:`Telemetry.metrics_snapshot` / :meth:`Telemetry.merge_metrics`).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Optional

from repro.telemetry import trace as _trace

__all__ = [
    "Telemetry",
    "activate",
    "active",
    "count",
    "current_span_id",
    "deactivate",
    "default_process_id",
    "disable",
    "enable",
    "event",
    "gauge",
    "metrics_snapshot",
    "span",
    "timing",
    "trace_carrier",
]


def default_process_id() -> str:
    """``<hostname>-<pid>``: unique per live process across a fleet."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _NullSpan:
    """The shared, reusable no-op span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, **fields) -> "_NullSpan":
        """Accept and drop extra fields (mirrors :meth:`_Span.add`)."""
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: times itself on ``with`` and records a ``span`` event."""

    __slots__ = ("_telemetry", "name", "fields", "span_id", "parent_id", "_started")

    def __init__(self, telemetry: "Telemetry", name: str, fields: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self.fields = fields
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._started = 0.0

    def add(self, **fields) -> "_Span":
        """Attach extra fields to the span's event (e.g. an outcome)."""
        self.fields.update(fields)
        return self

    def __enter__(self) -> "_Span":
        self.span_id, self.parent_id = self._telemetry._enter_span()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._started
        self._telemetry._exit_span()
        record = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_seconds": duration,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        record.update(self.fields)
        self._telemetry._write(record)
        return False


class _Aggregate:
    """Streaming count/total/min/max of one timing series."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count if self.count else 0.0,
        }

    def merge(self, other: dict) -> None:
        """Fold a serialised aggregate (``as_dict`` form) into this one."""
        self.count += int(other["count"])
        self.total += float(other["total"])
        self.minimum = min(self.minimum, float(other["min"]))
        self.maximum = max(self.maximum, float(other["max"]))


class Telemetry:
    """Per-process tracer + metrics registry writing one JSONL event file.

    Parameters
    ----------
    directory:
        Shared telemetry directory.  ``None`` means in-memory only: metrics
        aggregate (for :meth:`metrics_snapshot`) but events are dropped —
        the mode the engine's pool children run in.
    process:
        Identity stamped on every record and used in the event file name
        (defaults to :func:`default_process_id`).
    """

    def __init__(self, directory: Optional[str] = None, process: Optional[str] = None) -> None:
        self.process = process or default_process_id()
        #: PID this instance was created in — a forked pool worker inherits
        #: the parent's instance and must not write through it (the engine
        #: checks this to give such workers their own in-memory registry).
        self.pid = os.getpid()
        self.directory = None if directory is None else str(directory)
        self.path: Optional[str] = None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            self.path = os.path.join(self.directory, f"events-{self.process}.jsonl")
        self._handle = None
        self._lock = threading.RLock()
        self._local = threading.local()
        self._next_span = 0
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timings: dict[str, _Aggregate] = {}
        self._closed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Telemetry(directory={self.directory!r}, process={self.process!r})"

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_span(self) -> tuple[str, Optional[str]]:
        with self._lock:
            self._next_span += 1
            span_id = f"{self.process}:{self._next_span}"
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent_id

    def _exit_span(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def span(self, name: str, **fields) -> _Span:
        """A context manager timing ``name``; records one ``span`` event."""
        return _Span(self, name, fields)

    def record_span(self, name: str, duration_seconds: float, **fields) -> None:
        """Record an already-timed span (work that was measured out of band).

        The engine's pool children use this: the chunk is timed around the
        kernel call itself, then recorded in one write — no open span held
        across the chunk, so a child killed mid-chunk loses only its own
        record, never a half-open parent stack.
        """
        span_id, parent_id = self._enter_span()
        self._exit_span()
        self._write(
            {
                "kind": "span",
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "duration_seconds": float(duration_seconds),
                **fields,
            }
        )

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def count(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observation."""
        with self._lock:
            self._gauges[name] = float(value)

    def timing(self, name: str, value: float) -> None:
        """Fold one observation into the timing aggregate ``name``."""
        with self._lock:
            aggregate = self._timings.get(name)
            if aggregate is None:
                aggregate = self._timings[name] = _Aggregate()
            aggregate.add(value)

    def metrics_snapshot(self) -> dict:
        """The registry's current state as a JSON-able dict."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timings": {name: agg.as_dict() for name, agg in self._timings.items()},
            }

    def merge_metrics(self, snapshot: Optional[dict]) -> None:
        """Fold another registry's snapshot (a pool child's, a ``metrics`` event) into this one."""
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, serialized in snapshot.get("timings", {}).items():
                aggregate = self._timings.get(name)
                if aggregate is None:
                    aggregate = self._timings[name] = _Aggregate()
                aggregate.merge(serialized)

    def flush_metrics(self) -> None:
        """Write the registry as one ``metrics`` event (if anything accumulated)."""
        snapshot = self.metrics_snapshot()
        if any(snapshot.values()):
            self._write({"kind": "metrics", **snapshot})

    # ------------------------------------------------------------------ #
    # events and persistence
    # ------------------------------------------------------------------ #
    def event(self, name: str, **fields) -> None:
        """Record one structured ``event`` line."""
        self._write({"kind": "event", "name": name, **fields})

    def _write(self, record: dict) -> None:
        """Append one event line (crash-safe: flushed per line).

        The file is per-process, so there is no cross-process interleaving
        to guard against; the thread lock serialises the worker's heartbeat
        thread against its main loop.
        """
        if self.path is None or self._closed:
            return
        record = {"ts": time.time(), "process": self.process, **record}
        _trace.stamp(record)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self, flush: bool = True) -> None:
        """Flush the metrics registry (unless ``flush=False``) and close the file.

        ``flush=False`` is for pool children that already ship their
        registry back to the parent as a snapshot: closing without the
        final ``metrics`` event keeps fleet-wide counters single-counted.
        """
        if self._closed:
            return
        if flush:
            self.flush_metrics()
        with self._lock:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# --------------------------------------------------------------------- #
# the process-global instance and the no-op-by-default helpers
# --------------------------------------------------------------------- #
_active: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The process's active :class:`Telemetry`, or ``None`` when disabled."""
    return _active


def activate(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as the process-global instance."""
    global _active
    _active = telemetry
    return telemetry


def deactivate(telemetry: Optional[Telemetry] = None) -> None:
    """Clear the process-global instance (only if it is ``telemetry``, when given)."""
    global _active
    if telemetry is None or _active is telemetry:
        _active = None


def enable(directory: str, process: Optional[str] = None) -> Telemetry:
    """Activate telemetry writing into ``directory`` (closing any prior one)."""
    disable()
    return activate(Telemetry(directory, process=process))


def disable() -> None:
    """Close and clear the active telemetry (a no-op when already disabled)."""
    global _active
    if _active is not None:
        _active.close()
        _active = None


def span(name: str, **fields):
    """A span on the active telemetry, or the shared no-op span when disabled."""
    telemetry = _active
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, **fields)


def count(name: str, value: float = 1) -> None:
    """Counter increment on the active telemetry (no-op when disabled)."""
    telemetry = _active
    if telemetry is not None:
        telemetry.count(name, value)


def gauge(name: str, value: float) -> None:
    """Gauge update on the active telemetry (no-op when disabled)."""
    telemetry = _active
    if telemetry is not None:
        telemetry.gauge(name, value)


def timing(name: str, value: float) -> None:
    """Timing observation on the active telemetry (no-op when disabled)."""
    telemetry = _active
    if telemetry is not None:
        telemetry.timing(name, value)


def event(name: str, **fields) -> None:
    """Structured event on the active telemetry (no-op when disabled)."""
    telemetry = _active
    if telemetry is not None:
        telemetry.event(name, **fields)


def current_span_id() -> Optional[str]:
    """The calling thread's innermost open span id, or ``None``.

    The hook trace propagation uses to name a remote parent: a process
    about to hand work to another process (serve enqueuing spool jobs, the
    engine shipping chunk payloads to pool children) captures this id into
    the carrier so the receiver's top-level spans can point back at it.
    """
    telemetry = _active
    if telemetry is None:
        return None
    stack = telemetry._stack()
    return stack[-1] if stack else None


def trace_carrier() -> Optional[dict]:
    """The thread's trace context as a JSON-able propagation carrier.

    ``{"id": <trace id>, "parent": <current span id>}`` — the form stamped
    into fleet job descriptors and engine chunk payloads — or ``None``
    when no trace scope is attached (the carrier then simply stays off the
    payload, keeping untraced runs byte-identical to pre-trace builds).
    """
    trace_id = _trace.current_trace_id()
    if trace_id is None:
        return None
    carrier = {"id": trace_id}
    parent = current_span_id()
    if parent is not None:
        carrier["parent"] = parent
    return carrier


def metrics_snapshot() -> Optional[dict]:
    """The active telemetry's aggregated metrics, or ``None`` when disabled.

    Read-only and side-effect free — the ``repro serve`` status endpoint
    surfaces it so operators can watch ``serve.cache.hit`` / ``.miss`` and
    queue counters live without waiting for the run's event files.
    """
    telemetry = _active
    return None if telemetry is None else telemetry.metrics_snapshot()

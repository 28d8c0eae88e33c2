"""The telemetry views agree because they read one fold.

``repro telemetry report`` (:func:`summarize_events` over
:func:`load_events`), the Prometheus exposition behind ``/metrics`` and
``telemetry export`` (:meth:`TelemetryTailer.prometheus_families`) and the
``repro fleet top`` frame (:func:`gather_frame`) all fold the same event
files.  One real fleet run is read back through all three, and every counter
total, timing aggregate and event count must match.  The two readers differ
only on a last line with no newline: the report parses it (a torn line
counts as skipped), the tailer leaves it unread until its newline arrives.
"""

from __future__ import annotations

import json

import pytest

from repro.api import compile_request, sweep_request
from repro.fleet import JobSpool, request_job_payloads, run_worker
from repro.fleet.top import gather_frame
from repro.telemetry import core as telemetry
from repro.telemetry.report import load_events, summarize_events
from repro.telemetry.timeseries import TelemetryTailer, metric_name

TORN = json.dumps({"kind": "event", "name": "x", "ts": 1.0, "process": "torn"})


@pytest.fixture(autouse=True)
def _no_leaked_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture
def fleet_run(tmp_path):
    """A spool drained by two traced workers; the second job is a store hit."""
    plan = compile_request(sweep_request("edge-meg", [16], 2, seed=7))
    (payload,) = request_job_payloads(plan, 1)
    spool = JobSpool(str(tmp_path / "spool"))
    for job_id in ("job-miss", "job-hit"):
        spool.enqueue({**payload, "id": job_id, "store": "stores/shared"})
    directory = tmp_path / "telemetry"
    for worker in ("w1", "w2"):
        telemetry.enable(str(directory), process=worker)
        try:
            assert run_worker(
                spool.root, worker_id=worker, max_jobs=1, log=lambda *_: None
            ) == 0
        finally:
            telemetry.disable()  # flushes this worker's ``metrics`` event
    # A writer that died mid-line: one whole record, then a torn half.
    torn = directory / "events-torn.jsonl"
    torn.write_text(TORN + "\n" + TORN[: len(TORN) // 2], encoding="utf-8")
    return spool, str(directory), len(TORN) + 1


def _samples(families: list[dict]) -> dict:
    """``{(family, suffix): value}`` for the unlabelled samples."""
    return {
        (family["name"], sample.get("suffix", "")): sample["value"]
        for family in families
        for sample in family["samples"]
        if not sample.get("labels")
    }


def test_report_exposition_and_top_agree(fleet_run):
    spool, directory, torn_offset = fleet_run
    events, skipped = load_events(directory, with_skipped=True)
    summary = summarize_events(events, skipped_lines=skipped)
    tailer = TelemetryTailer(directory)
    tailer.poll()
    samples = _samples(tailer.prometheus_families())
    frame = gather_frame(spool, tailer)

    counters = summary["metrics"]["counters"]
    assert counters["engine.store.hit"] == 1
    assert counters["engine.store.miss"] == 1
    assert summary["phases"]["worker.job"]["count"] == 2
    assert summary["queue"]["queue.claim"] == summary["queue"]["queue.done"] == 2
    for name, value in counters.items():
        assert samples[(metric_name(name) + "_total", "")] == value, name
    assert tailer.counters == counters
    timings = summary["metrics"]["timings"]
    assert timings
    for name, aggregate in timings.items():
        base = metric_name(name)
        for suffix, key in (("_sum", "total"), ("_count", "count"),
                            ("_min", "min"), ("_max", "max")):
            assert samples[(base, suffix)] == aggregate[key], (name, key)
    assert tailer.timings == timings

    assert summary["events"] == len(events)
    assert samples[("repro_telemetry_events_total", "")] == summary["events"]
    assert frame["telemetry"]["events"] == summary["events"]
    assert frame["window"]["jobs_completed"] == summary["queue"]["queue.done"]
    assert frame["counts"]["done"] == 2

    # The torn last line: counted as skipped by the report, left unread by
    # the tailer (its offset stops after the one complete line).
    assert summary["skipped_lines"] == 1
    assert tailer.skipped_lines == 0
    assert samples[("repro_telemetry_skipped_lines_total", "")] == 0
    assert tailer.checkpoint()["offsets"]["events-torn.jsonl"] == torn_offset


def test_tailer_reads_the_torn_line_once_completed(fleet_run):
    _, directory, _ = fleet_run
    tailer = TelemetryTailer(directory)
    total = tailer.poll()
    with open(f"{directory}/events-torn.jsonl", "a", encoding="utf-8") as handle:
        handle.write(TORN[len(TORN) // 2:] + "\n")
    assert tailer.poll() == 1
    assert tailer.events_total == total + 1
    assert tailer.events_total == len(load_events(directory))

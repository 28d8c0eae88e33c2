"""End-to-end fleet execution tests: spool → workers → fan-in byte-identity.

The fleet's headline contract: ``K`` shard jobs drained by any number of
workers — including after crashes and lease-expiry requeues — merge into a
store (and assemble into a report) byte-identical to a one-shot unsharded
run of the same workload.
"""

from __future__ import annotations

import json

import pytest

from repro.api import compile_request, experiment_request, sweep_request
from repro.cli import main
from repro.engine import Engine, ResultStore
from repro.experiments.runner import measure_flooding_sweep
from repro.fleet import (
    FleetError,
    JobSpool,
    format_status,
    merge_fleet_stores,
    request_job_payloads,
    run_fleet,
    run_worker,
    spool_status,
)
from repro.sweeps import SWEEP_FAMILIES

FAMILY = "edge-meg"
NODES = [16, 24]
TRIALS = 6
SEED = 7
KWARGS = {"q": 0.5, "avg_degree": 4.0}


def _reference_store(directory) -> ResultStore:
    """The unsharded run's store, compacted to canonical sorted-key bytes."""
    store = ResultStore(str(directory))
    measure_flooding_sweep(
        SWEEP_FAMILIES[FAMILY],
        NODES,
        num_trials=TRIALS,
        rng=SEED,
        engine=Engine(store=store),
        factory_kwargs=KWARGS,
    )
    store.compact()
    return store


def _sweep_plan():
    return compile_request(sweep_request(FAMILY, NODES, TRIALS, seed=SEED, params=KWARGS))


def _sweep_payloads(shards: int) -> list[dict]:
    return request_job_payloads(_sweep_plan(), shards)


def _store_bytes(store: ResultStore) -> bytes:
    with open(store.path, "rb") as handle:
        return handle.read()


class TestFleetSweepByteIdentity:
    def test_local_worker_fleet_matches_unsharded_run(self, tmp_path):
        """2 spawned workers drain a 3-shard sweep; merged store is identical."""
        payloads = _sweep_payloads(shards=3)
        spool = JobSpool(tmp_path / "spool", lease_ttl=30.0)
        outcome = run_fleet(
            spool, _sweep_plan(), payloads, local_workers=2, poll=0.1, max_wait=300.0,
            log=lambda *_: None,
        )
        assert outcome.ok
        assert sorted(outcome.done) == sorted(p["id"] for p in payloads)

        merged = ResultStore(str(tmp_path / "merged"))
        report = merge_fleet_stores(spool, _sweep_plan(), payloads, merged)
        assert report.assembled == len(NODES)
        assert report.pending_shards == 0

        reference = _reference_store(tmp_path / "reference")
        assert _store_bytes(merged) == _store_bytes(reference)

    def test_distinct_workers_partition_the_jobs(self, tmp_path):
        """No job is executed by two workers (executor-level exclusivity)."""
        payloads = _sweep_payloads(shards=6)
        spool = JobSpool(tmp_path / "spool", lease_ttl=30.0)
        outcome = run_fleet(
            spool, _sweep_plan(), payloads, local_workers=2, poll=0.1, max_wait=300.0,
            log=lambda *_: None,
        )
        assert outcome.ok
        executors = {}
        for job_id in spool.done_ids():
            outcome_record = spool.read_job("done", job_id)["outcome"]
            executors[job_id] = outcome_record["worker"]
        # Every job ran exactly once (ids are unique by construction) and
        # the executing workers are recorded per job.
        assert sorted(executors) == sorted(p["id"] for p in payloads)
        assert all(worker for worker in executors.values())


class TestCrashRecovery:
    def test_killed_workers_job_is_requeued_and_result_identical(self, tmp_path):
        """A claimed-then-abandoned job (worker killed mid-run: lease held,

        heartbeat silent) is reclaimed after lease expiry, re-executed, and
        the final merged store is still byte-identical to the unsharded run.
        """
        payloads = _sweep_payloads(shards=3)
        spool = JobSpool(tmp_path / "spool", lease_ttl=1.0, max_attempts=3)
        spool.write_config()
        for payload in payloads:
            spool.enqueue(payload)

        # The "killed" worker: claims a job, then never heartbeats again.
        victim = spool.claim("killed-worker")
        assert victim is not None

        # A healthy in-process worker drains the spool; its idle loop runs
        # requeue_expired, so it reclaims the victim's lease once the TTL
        # lapses and finishes the job itself.
        assert (
            run_worker(
                str(spool.root),
                worker_id="survivor",
                poll=0.1,
                exit_when_empty=True,
                log=lambda *_: None,
            )
            == 0
        )
        assert spool.is_drained()
        assert spool.failed_ids() == []

        recovered = spool.read_job("done", victim.id)
        assert recovered["attempts"] == 1  # exactly one expiry requeue
        assert "lease expired" in recovered["last_error"]
        assert recovered["outcome"]["worker"] == "survivor"

        merged = ResultStore(str(tmp_path / "merged"))
        merge_fleet_stores(spool, _sweep_plan(), payloads, merged)
        reference = _reference_store(tmp_path / "reference")
        assert _store_bytes(merged) == _store_bytes(reference)

    def test_poison_job_exhausts_budget_and_fails_cleanly(self, tmp_path):
        spool = JobSpool(tmp_path / "spool", lease_ttl=30.0, max_attempts=2)
        spool.write_config()  # the draining worker must agree on the budget
        spool.enqueue(
            {
                "id": "poison-1",
                "kind": "sweep",
                "family": "no-such-family",
                "nodes": [8],
                "trials": 2,
                "seed": 0,
                "shard": [0, 1],
                "store": "stores/poison-1",
            }
        )
        assert (
            run_worker(
                str(spool.root),
                poll=0.05,
                exit_when_empty=True,
                log=lambda *_: None,
            )
            == 0
        )
        assert spool.failed_ids() == ["poison-1"]
        descriptor = spool.read_job("failed", "poison-1")
        assert descriptor["attempts"] == 2
        assert "no-such-family" in descriptor["last_error"]


def _e7_plan():
    return compile_request(experiment_request("E7", scale="small", seed=3))


class TestFleetExperiment:
    def test_fleet_experiment_report_matches_unsharded_run(self, tmp_path):
        plan = _e7_plan()
        payloads = request_job_payloads(plan, 2)
        spool = JobSpool(tmp_path / "spool", lease_ttl=30.0)
        spool.write_config()
        for payload in payloads:
            spool.enqueue(payload)
        # Drained by one in-process worker (scheduling is irrelevant to the
        # stored bytes; the multi-worker path is covered by the sweep tests).
        assert (
            run_worker(
                str(spool.root), poll=0.05, exit_when_empty=True, log=lambda *_: None
            )
            == 0
        )
        merged = ResultStore(str(tmp_path / "merged"))
        merge_fleet_stores(spool, plan, payloads, merged)

        reference = ResultStore(str(tmp_path / "reference"))
        batches = plan.run(Engine(store=reference))
        reference.compact()
        assert _store_bytes(merged) == _store_bytes(reference)

        assembled = plan.assemble(plan.records(merged))
        live = {tag: batch.as_dict() for tag, batch in batches.items()}
        assert assembled == plan.assemble(live)

    def test_merge_without_all_shards_raises(self, tmp_path):
        plan = _e7_plan()
        payloads = request_job_payloads(plan, 2)
        spool = JobSpool(tmp_path / "spool")
        for payload in payloads:
            spool.enqueue(payload)
        # Execute only the first job, then attempt the fan-in.
        from repro.fleet import execute_job

        job = spool.claim("w")
        execute_job(job.payload, spool)
        spool.mark_done(job.id)
        ResultStore(str(spool.resolve(payloads[1]["store"]))).touch()
        merged = ResultStore(str(tmp_path / "merged"))
        with pytest.raises(FleetError, match="missing"):
            merge_fleet_stores(spool, plan, payloads, merged)


class TestFleetCli:
    def test_fleet_run_experiment_cli(self, tmp_path, capsys):
        """The experiment workload path end-to-end through the CLI.

        E9 compiles to zero engine jobs (proof-condition sampling runs in
        assembly), so this exercises the whole spool/worker/fan-in loop at
        minimal cost — including empty-shard stores staying mergeable.
        """
        json_path = tmp_path / "report.json"
        code = main(
            [
                "fleet", "run", "experiment", "E9",
                "--scale", "small",
                "--seed", "3",
                "--shards", "1",
                "--local-workers", "1",
                "--spool", str(tmp_path / "spool"),
                "--results-dir", str(tmp_path / "merged"),
                "--max-wait", "300",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        assert "1 job(s) done" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["experiment_id"] == "E9"

        # Identical to the direct, non-fleet run of the same experiment.
        from repro.experiments.registry import run_experiment

        reference = run_experiment("E9", scale="small", seed=3)
        assert payload == json.loads(json.dumps(reference.as_dict()))

    def test_run_fleet_max_wait_aborts(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        payloads = _sweep_payloads(shards=3)
        with pytest.raises(FleetError, match="max_wait"):
            # No workers anywhere: the monitor must give up, not spin.
            run_fleet(
                spool, _sweep_plan(), payloads, local_workers=0, poll=0.05, max_wait=0.3,
                log=lambda *_: None,
            )
        # The spool survives for forensics.
        assert len(spool.pending_ids()) == 3

    def test_fleet_run_sweep_cli(self, tmp_path, capsys):
        merged_dir = tmp_path / "merged"
        json_path = tmp_path / "fleet.json"
        code = main(
            [
                "fleet", "run", "sweep", FAMILY,
                "--nodes", ",".join(str(n) for n in NODES),
                "--trials", str(TRIALS),
                "--seed", str(SEED),
                "--shards", "3",
                "--local-workers", "2",
                "--spool", str(tmp_path / "spool"),
                "--results-dir", str(merged_dir),
                "--max-wait", "300",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "3 job(s) done" in output
        assert "n=    16" in output

        reference = _reference_store(tmp_path / "reference")
        assert _store_bytes(ResultStore(str(merged_dir))) == _store_bytes(reference)

        payload = json.loads(json_path.read_text())
        assert payload["shards"] == 3
        assert len(payload["measurements"]) == len(NODES)
        assert all(
            len(point["samples"]) == TRIALS for point in payload["measurements"]
        )
        # Same per-point dict shape as the non-fleet `repro sweep --json`.
        assert payload["estimator"] == "single source"
        assert all(point["from_cache"] for point in payload["measurements"])

    def test_fleet_run_rejects_reused_spool(self, tmp_path, capsys):
        spool = JobSpool(tmp_path / "spool")
        for payload in _sweep_payloads(shards=3):
            spool.enqueue(payload)
        code = main(
            [
                "fleet", "run", "sweep", FAMILY,
                "--nodes", ",".join(str(n) for n in NODES),
                "--trials", str(TRIALS),
                "--seed", str(SEED),
                "--shards", "3",
                "--spool", str(tmp_path / "spool"),
                "--results-dir", str(tmp_path / "merged"),
            ]
        )
        assert code == 1
        assert "already exists" in capsys.readouterr().err

    def test_fleet_run_requires_results_dir(self, tmp_path, capsys):
        code = main(
            [
                "fleet", "run", "sweep", FAMILY,
                "--shards", "2",
                "--spool", str(tmp_path / "spool"),
            ]
        )
        assert code == 2
        assert "--results-dir" in capsys.readouterr().err

    def test_fleet_rejects_more_shards_than_trials(self, tmp_path, capsys):
        code = main(
            [
                "fleet", "run", "sweep", FAMILY,
                "--trials", "2",
                "--shards", "5",
                "--spool", str(tmp_path / "spool"),
                "--results-dir", str(tmp_path / "merged"),
            ]
        )
        assert code == 1
        assert "exceeds trials" in capsys.readouterr().err

    def test_worker_cli_drains_empty_spool(self, tmp_path, capsys):
        JobSpool(tmp_path / "spool")
        code = main(
            ["worker", "--spool", str(tmp_path / "spool"), "--exit-when-empty"]
        )
        assert code == 0
        assert "exiting after 0 job(s)" in capsys.readouterr().out

    def test_fleet_status_cli(self, tmp_path, capsys):
        spool = JobSpool(tmp_path / "spool", lease_ttl=45.0)
        spool.write_config()
        for payload in _sweep_payloads(shards=3):
            spool.enqueue(payload)
        spool.claim("busy-worker")
        assert main(["fleet", "status", str(tmp_path / "spool")]) == 0
        output = capsys.readouterr().out
        assert "3 total" in output
        assert "2 pending, 1 active" in output
        assert "busy-worker" in output

    def test_fleet_status_missing_spool(self, tmp_path, capsys):
        assert main(["fleet", "status", str(tmp_path / "nope")]) == 2
        assert "no spool directory" in capsys.readouterr().err


class TestFleetResume:
    def test_resume_reuses_done_jobs_and_finishes_the_rest(self, tmp_path):
        """A partially drained spool resumes: done work kept, rest executed."""
        payloads = _sweep_payloads(shards=3)
        spool = JobSpool(tmp_path / "spool", lease_ttl=30.0)
        spool.write_config()
        spool.enqueue(payloads[0])
        assert (
            run_worker(
                str(spool.root), worker_id="first-run", poll=0.05,
                exit_when_empty=True, log=lambda *_: None,
            )
            == 0
        )

        outcome = run_fleet(
            spool, _sweep_plan(), payloads, local_workers=1, poll=0.1, max_wait=300.0,
            log=lambda *_: None, resume=True,
        )
        assert outcome.ok
        assert sorted(outcome.done) == sorted(p["id"] for p in payloads)
        # The first run's completed job was reused, not re-executed.
        assert spool.read_job("done", payloads[0]["id"])["outcome"]["worker"] == "first-run"

        merged = ResultStore(str(tmp_path / "merged"))
        merge_fleet_stores(spool, _sweep_plan(), payloads, merged)
        reference = _reference_store(tmp_path / "reference")
        assert _store_bytes(merged) == _store_bytes(reference)

    def test_resume_resurrects_failed_jobs(self, tmp_path):
        """Jobs parked in failed/ get a fresh retry budget on resume."""
        payloads = _sweep_payloads(shards=2)
        spool = JobSpool(tmp_path / "spool", lease_ttl=30.0, max_attempts=1)
        spool.write_config()
        spool.enqueue(payloads[0])
        job = spool.claim("flaky-worker")
        spool.mark_failed(job.id, "transient infrastructure failure")
        assert spool.failed_ids() == [payloads[0]["id"]]

        outcome = run_fleet(
            spool, _sweep_plan(), payloads, local_workers=1, poll=0.1, max_wait=300.0,
            log=lambda *_: None, resume=True,
        )
        assert outcome.ok
        assert spool.failed_ids() == []

        merged = ResultStore(str(tmp_path / "merged"))
        merge_fleet_stores(spool, _sweep_plan(), payloads, merged)
        reference = _reference_store(tmp_path / "reference")
        assert _store_bytes(merged) == _store_bytes(reference)

    def test_resume_re_runs_done_job_whose_store_vanished(self, tmp_path):
        """done/ is only trusted if the job's store still holds its records."""
        import shutil

        payloads = _sweep_payloads(shards=2)
        spool = JobSpool(tmp_path / "spool", lease_ttl=30.0)
        spool.write_config()
        spool.enqueue(payloads[0])
        assert (
            run_worker(
                str(spool.root), poll=0.05, exit_when_empty=True, log=lambda *_: None
            )
            == 0
        )
        shutil.rmtree(spool.resolve(payloads[0]["store"]))

        outcome = run_fleet(
            spool, _sweep_plan(), payloads, local_workers=1, poll=0.1, max_wait=300.0,
            log=lambda *_: None, resume=True,
        )
        assert outcome.ok
        merged = ResultStore(str(tmp_path / "merged"))
        merge_fleet_stores(spool, _sweep_plan(), payloads, merged)
        reference = _reference_store(tmp_path / "reference")
        assert _store_bytes(merged) == _store_bytes(reference)

    def test_fleet_run_resume_cli(self, tmp_path, capsys):
        """`repro fleet run --resume` accepts the spool a prior run drained."""
        argv = [
            "fleet", "run", "sweep", FAMILY,
            "--nodes", ",".join(str(n) for n in NODES),
            "--trials", str(TRIALS),
            "--seed", str(SEED),
            "--shards", "2",
            "--local-workers", "1",
            "--spool", str(tmp_path / "spool"),
            "--results-dir", str(tmp_path / "merged"),
            "--max-wait", "300",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Without --resume the reused spool is rejected; with it, the fully
        # drained spool satisfies the run without executing anything.
        assert main(argv) == 1
        assert "already exists" in capsys.readouterr().err
        assert main(argv + ["--resume"]) == 0
        assert "2 job(s) done" in capsys.readouterr().out

        reference = _reference_store(tmp_path / "reference")
        assert _store_bytes(ResultStore(str(tmp_path / "merged"))) == _store_bytes(reference)


class TestStatusFormatting:
    def test_format_status_sections(self, tmp_path):
        spool = JobSpool(tmp_path / "spool", lease_ttl=10.0, max_attempts=1)
        for payload in _sweep_payloads(shards=3):
            spool.enqueue(payload)
        job = spool.claim("w1")
        spool.mark_failed(job.id, "boom")  # budget of 1: straight to failed
        spool.claim("w2")
        status = spool_status(spool)
        assert status.total == 3
        assert not status.drained
        text = format_status(status)
        assert "1 pending, 1 active, 0 done, 1 failed" in text
        assert "worker=w2" in text
        assert "boom" in text

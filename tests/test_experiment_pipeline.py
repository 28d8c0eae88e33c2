"""Tests for the engine-routed experiments pipeline.

An experiment compiles through :func:`repro.api.compile_request` like every
request, and runs, shards and reads back with the compiled plan's ``run``
and ``records``.

Covers the three contracts the CI experiment fan-out matrix enforces:

* **Golden values** — every E1-E10 small-scale report is bit-compatible with
  the values the pre-pipeline registry produced (captured in
  ``tests/data/experiments_golden_small.json`` before the refactor).
* **Execution invariance** — the same id/scale/seed yields an identical
  report dict across serial, multi-worker, and sharded+merged execution.
* **Store semantics** — shard stores merge byte-identical to an unsharded
  run's store, partial runs resume from the store, warm re-runs are pure
  replay, and the CLI ``repro experiment`` path round-trips through a
  ResultStore.

``tests/data/experiment_pins_golden.json`` pins, byte for byte, what the
registry declares: the ``(tag, label, store key)`` of every job of E1-E10 at
both scales, the SHA-256 of every small-scale assembled payload, and the
text of ``repro experiments list``.  Regenerate it after an intended change
with::

    PYTHONPATH=src python tests/test_experiment_pipeline.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os

import pytest

from repro.api import compile_request, experiment_request
from repro.cli import main
from repro.engine import Engine, ResultStore, jsonify
from repro.experiments.pipeline import MissingRecordError
from repro.experiments.registry import EXPERIMENTS, run_experiment

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "experiments_golden_small.json"
)
PINS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "experiment_pins_golden.json"
)
ALL_IDS = sorted(EXPERIMENTS, key=lambda e: int(e[1:]))
#: The seed the job pins compile at.
PIN_SEED = 3


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _approx_equal(actual, expected, rel=1e-9) -> bool:
    """Recursive equality with relative tolerance on floats (notes stay exact)."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(_approx_equal(actual[k], expected[k], rel) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_approx_equal(a, e, rel) for a, e in zip(actual, expected))
        )
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return actual == pytest.approx(expected, rel=rel)
    return actual == expected


def _plan(experiment_id: str, scale: str = "small", seed: int = 0):
    return compile_request(experiment_request(experiment_id, scale=scale, seed=seed))


def _report(plan, batches) -> dict:
    """The report dict a plan assembles from the batches ``run`` returned."""
    return plan.assemble({tag: batch.as_dict() for tag, batch in batches.items()})["report"]


def _store_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return sorted(line for line in handle if line.strip())


@functools.lru_cache(maxsize=None)
def _small_payload(experiment_id: str) -> dict:
    """The assembled small-scale, seed-0 payload of one experiment (run once)."""
    plan = _plan(experiment_id)
    batches = plan.run(Engine())
    return jsonify(plan.assemble({tag: batch.as_dict() for tag, batch in batches.items()}))


def job_pins(experiment_id: str, scale: str) -> list[list[str]]:
    """``[tag, label, store key]`` of every job of one experiment plan."""
    plan = _plan(experiment_id, scale=scale, seed=PIN_SEED)
    return [
        [job.tag, job.spec.label, key] for job, key in zip(plan.jobs, plan.store_keys)
    ]


def payload_sha256(payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def list_stdout() -> str:
    """What ``repro experiments list`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["experiments", "list"]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenValues:
    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_small_scale_report_matches_pre_pipeline_values(self, experiment_id, golden):
        report = _small_payload(experiment_id)["report"]
        assert _approx_equal(report, golden[experiment_id]), (
            f"{experiment_id} drifted from its pre-pipeline golden values"
        )


class TestDeclarationPins:
    """Every job, every small payload and the id list, pinned byte for byte."""

    @pytest.mark.parametrize("scale", ["small", "full"])
    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_jobs_keep_tags_labels_and_store_keys(self, experiment_id, scale, pins):
        assert job_pins(experiment_id, scale) == pins["jobs"][f"{experiment_id}/{scale}"]

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_small_payload_bytes(self, experiment_id, pins):
        assert payload_sha256(_small_payload(experiment_id)) == pins["payload_sha256"][experiment_id]

    def test_experiments_list_text(self, pins):
        assert list_stdout() == pins["experiments_list"]


class TestCompile:
    def test_plans_have_tagged_jobs(self):
        plan = _plan("E1")
        assert plan.request.experiment_id == "E1"
        assert len(plan.jobs) == 3
        for job in plan.jobs:
            assert dict(job.spec.tags)["experiment"] == "E1"
            assert dict(job.spec.tags)["scale"] == "small"

    def test_proof_machinery_experiments_compile_to_zero_jobs(self):
        for experiment_id in ("E9", "E10"):
            plan = _plan(experiment_id)
            assert plan.jobs == ()
            assert _report(plan, plan.run(Engine()))["experiment_id"] == experiment_id

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            _plan("E1", scale="huge")

    def test_shard_jobs_stride(self):
        plan = _plan("E7")
        keys = plan.store_keys
        assert plan.shard_keys(0, 2) == keys[0::2]
        assert plan.shard_keys(1, 2) == keys[1::2]
        assert plan.shard_keys(4, 5) == []
        with pytest.raises(ValueError):
            plan.run(Engine(), shard=(2, 2))

    def test_store_keys_stable_across_compilations(self):
        first = _plan("E7", seed=3)
        second = _plan("E7", seed=3)
        assert [j.store_key() for j in first.jobs] == [j.store_key() for j in second.jobs]
        # and idempotent on one plan instance (keys must not drift per call)
        assert [j.store_key() for j in first.jobs] == first.store_keys


class TestExecutionInvariance:
    def test_multi_worker_report_identical_to_serial(self):
        serial = run_experiment("E1", scale="small", seed=0)
        pooled = run_experiment("E1", scale="small", seed=0, engine=Engine(workers=2))
        assert jsonify(pooled.as_dict()) == jsonify(serial.as_dict())

    def test_sharded_stores_merge_byte_identical_and_assemble(self, tmp_path):
        plan = _plan("E7", seed=3)
        reference_store = ResultStore(tmp_path / "reference")
        reference = _report(plan, plan.run(Engine(store=reference_store)))

        shard_dirs = []
        for index in range(2):
            shard_dir = tmp_path / f"shard{index}"
            batches = plan.run(Engine(store=ResultStore(shard_dir)), shard=(index, 2))
            assert len(batches) == 2  # E7 small has 4 jobs
            shard_dirs.append(shard_dir)

        merged = ResultStore(tmp_path / "merged")
        merge_report = merged.merge(*shard_dirs)
        assert merge_report.records == 4
        assert merge_report.pending_shards == 0

        reference_store.compact()
        assert _store_lines(merged.path) == _store_lines(reference_store.path)

        assembled = plan.assemble(plan.records(merged))["report"]
        assert jsonify(assembled) == jsonify(reference)

    def test_partial_run_resumes_from_store(self, tmp_path):
        plan = _plan("E1")
        store = ResultStore(tmp_path / "store")
        shard = plan.run(Engine(store=store), shard=(0, 2))
        assert all(not batch.from_cache for batch in shard.values())

        full = plan.run(Engine(store=store))
        for tag, batch in full.items():
            assert batch.from_cache == (tag in shard)
        assert jsonify(_report(plan, full)) == jsonify(
            run_experiment("E1", scale="small", seed=0).as_dict()
        )

    def test_warm_store_rerun_is_pure_replay(self, tmp_path):
        plan = _plan("E7")
        store = ResultStore(tmp_path / "store")
        cold = plan.run(Engine(store=store))
        assert not any(batch.from_cache for batch in cold.values())
        warm = plan.run(Engine(store=store))
        assert all(batch.from_cache for batch in warm.values())
        assert len(warm) == len(plan.jobs)
        assert jsonify(_report(plan, warm)) == jsonify(_report(plan, cold))


class TestStoreRecords:
    def test_records_carry_experiment_tags(self, tmp_path):
        plan = _plan("E1")
        store = ResultStore(tmp_path / "store")
        plan.run(Engine(store=store))
        for job in plan.jobs:
            record = store.get(job.store_key())
            assert record is not None
            assert record["tags"]["experiment"] == "E1"
            assert record["tags"]["point"] == job.tag

    def test_missing_record_raises_with_job_name(self, tmp_path):
        plan = _plan("E1")
        store = ResultStore(tmp_path / "empty")
        with pytest.raises(MissingRecordError, match="n=50") as error:
            plan.records(store)
        assert str(error.value) == (
            f"store {store.path} holds no record for job 'n=50' of E1 "
            f"(scale=small, seed=0); run or merge the shard owning that job first"
        )

    def test_empty_shard_still_touches_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert _plan("E1").run(Engine(store=store), shard=(4, 5)) == {}
        assert os.path.exists(store.path)
        # and an empty store file is a legal merge source
        merged = ResultStore(tmp_path / "merged")
        assert merged.merge(tmp_path / "store").records == 0


class TestExperimentCLI:
    def test_run_prints_report_and_writes_json(self, tmp_path, capsys, golden):
        json_path = tmp_path / "report.json"
        rc = main(
            ["experiment", "E1", "--results-dir", str(tmp_path / "store"),
             "--json", str(json_path)]
        )
        assert rc == 0
        assert "E1: Theorem 1 bound" in capsys.readouterr().out
        with open(json_path, "r", encoding="utf-8") as handle:
            assert _approx_equal(json.load(handle), golden["E1"])

    def test_rerun_is_served_from_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["experiment", "E7", "--results-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["experiment", "E7", "--results-dir", store_dir]) == 0
        assert "served from the result store" in capsys.readouterr().out

    def test_shard_and_merge_round_trip(self, tmp_path, capsys):
        scale_args = ["--scale", "small", "--seed", "3"]
        for index in range(2):
            rc = main(
                ["experiment", "E7", *scale_args, "--shard", f"{index}/2",
                 "--results-dir", str(tmp_path / f"shard{index}")]
            )
            assert rc == 0
        merged_json = tmp_path / "merged.json"
        rc = main(
            ["experiment", "E7", *scale_args,
             "--results-dir", str(tmp_path / "merged"),
             "--merge", str(tmp_path / "shard0"), str(tmp_path / "shard1"),
             "--json", str(merged_json)]
        )
        assert rc == 0
        capsys.readouterr()

        reference_json = tmp_path / "reference.json"
        rc = main(
            ["experiment", "E7", *scale_args,
             "--results-dir", str(tmp_path / "reference"),
             "--json", str(reference_json)]
        )
        assert rc == 0
        with open(merged_json) as a, open(reference_json) as b:
            assert json.load(a) == json.load(b)

    def test_merge_with_missing_shard_fails_loudly(self, tmp_path, capsys):
        rc = main(
            ["experiment", "E7", "--results-dir", str(tmp_path / "merged"), "--merge"]
        )
        assert rc == 1
        assert "assembly failed" in capsys.readouterr().err

    def test_shard_requires_results_dir(self, capsys):
        rc = main(["experiment", "E7", "--shard", "0/2"])
        assert rc == 2
        assert "--results-dir" in capsys.readouterr().err

    def test_shard_and_merge_mutually_exclusive(self, tmp_path, capsys):
        rc = main(
            ["experiment", "E7", "--shard", "0/2", "--merge",
             "--results-dir", str(tmp_path / "store")]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_zero_job_experiment_runs_plain(self, capsys):
        assert main(["experiment", "E9"]) == 0
        assert "E9: Expansion quantities" in capsys.readouterr().out


if __name__ == "__main__":
    goldens = {
        "jobs": {
            f"{experiment_id}/{scale}": job_pins(experiment_id, scale)
            for experiment_id in ALL_IDS
            for scale in ("small", "full")
        },
        "payload_sha256": {
            experiment_id: payload_sha256(_small_payload(experiment_id))
            for experiment_id in ALL_IDS
        },
        "experiments_list": list_stdout(),
    }
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS_PATH}")

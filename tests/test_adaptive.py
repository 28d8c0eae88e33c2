"""Adaptive sampling end-to-end: engine stopping, sketches, fleet sizing.

The adaptive contracts introduced with :mod:`repro.stats.sequential`:

* a stopping rule's realized trial count depends only on the seed and the
  rule — never on worker count or executor kind;
* a stopped run persists enough state (realized trials, stopping metadata,
  sketch) to be reproduced and re-served from the store;
* sequential stopping refuses trial-sharding everywhere (engine, fleet),
  and the fleet's adaptive path — pilot round → variance-sized fixed
  budgets — round-trips through the normal byte-identical shard machinery.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    InvalidParameterError,
    SchemaError,
    WorkRequest,
    compile_request,
    sweep_request,
)
from repro.engine import (
    Engine,
    ResultStore,
    ShardSpec,
    StoppingRule,
    TrialSpec,
    batch_store_key,
)
from repro.experiments.runner import measurement_from_batch, measurement_from_record
from repro.fleet import (
    JobSpool,
    execute_job,
    merge_fleet_stores,
    plan_variance_budgets,
    request_job_payloads,
)
from repro.meg.edge_meg import EdgeMEG


def make_edge_meg(num_nodes: int) -> EdgeMEG:
    """Module-level factory (picklable, usable with workers > 1)."""
    return EdgeMEG(num_nodes, p=0.1, q=0.3)


RULE = StoppingRule(target_halfwidth=0.5, min_trials=8, check_every=8)


def adaptive_spec(budget: int = 64, stopping: StoppingRule = RULE) -> TrialSpec:
    return TrialSpec(
        factory=make_edge_meg, args=(24,), num_trials=budget, seed=11,
        stopping=stopping,
    )


class TestEngineStopping:
    def test_stops_early_within_budget(self):
        result = Engine().run(adaptive_spec())
        assert result.stopped_early
        assert result.num_trials < 64
        assert result.num_trials % RULE.check_every == 0
        assert result.num_trials >= RULE.min_trials

    def test_realized_count_worker_invariant(self):
        reference = Engine().run(adaptive_spec())
        for engine in (
            Engine(workers=4),
            Engine(workers=3, executor="thread"),
        ):
            result = engine.run(adaptive_spec())
            assert result.num_trials == reference.num_trials
            assert result.flooding_times == reference.flooding_times

    def test_adaptive_samples_prefix_of_fixed_run(self):
        adaptive = Engine().run(adaptive_spec())
        fixed = Engine().run(
            TrialSpec(factory=make_edge_meg, args=(24,), num_trials=64, seed=11)
        )
        count = adaptive.num_trials
        assert adaptive.flooding_times == fixed.flooding_times[:count]

    def test_budget_exhaustion_not_marked_early(self):
        tight = StoppingRule(target_halfwidth=1e-6, min_trials=8, check_every=8)
        result = Engine().run(adaptive_spec(budget=16, stopping=tight))
        assert result.num_trials == 16
        assert not result.stopped_early

    def test_store_roundtrip_preserves_stopping_state(self, tmp_path):
        store = ResultStore(str(tmp_path / "adaptive"))
        first = Engine(store=store).run(adaptive_spec())
        again = Engine(store=store).run(adaptive_spec())
        assert again.from_cache
        assert again.stopped_early == first.stopped_early
        assert again.num_trials == first.num_trials
        assert again.flooding_times == first.flooding_times
        record = store.get(batch_store_key(adaptive_spec()))
        assert record["stopping"]["realized_trials"] == first.num_trials
        assert record["stopping"]["budget"] == 64
        assert record["sketch"]["moments"]["count"] == first.num_trials

    def test_stopping_changes_cache_key(self):
        fixed = TrialSpec(factory=make_edge_meg, args=(24,), num_trials=64, seed=11)
        assert batch_store_key(adaptive_spec()) != batch_store_key(fixed)

    def test_run_shard_rejects_multiway_and_delegates_oneway(self):
        engine = Engine()
        with pytest.raises(ValueError, match="cannot be trial-sharded"):
            engine.run_shard(ShardSpec(adaptive_spec(), 0, 2))
        sharded = engine.run_shard(ShardSpec(adaptive_spec(), 0, 1))
        direct = engine.run(adaptive_spec())
        assert sharded.flooding_times == direct.flooding_times


class TestApiRoundTrip:
    def test_stopping_request_roundtrip(self):
        request = sweep_request(
            "edge-meg", [16, 24], 64, seed=7, stopping={"target_halfwidth": 0.5}
        )
        clone = WorkRequest.from_dict(json.loads(json.dumps(request.as_dict())))
        assert clone.stopping == request.stopping
        plan = compile_request(clone)
        assert all(job.spec.stopping == request.stopping for job in plan.jobs)

    def test_per_point_trials_roundtrip(self):
        request = sweep_request("edge-meg", [16, 24], [6, 10], seed=7)
        assert request.trials == (6, 10)
        clone = WorkRequest.from_dict(json.loads(json.dumps(request.as_dict())))
        assert clone.trials == (6, 10)
        plan = compile_request(clone)
        assert [job.spec.num_trials for job in plan.jobs] == [6, 10]

    def test_per_point_trials_validation(self):
        with pytest.raises(InvalidParameterError):
            sweep_request("edge-meg", [16, 24], [6], seed=7)
        with pytest.raises(InvalidParameterError):
            sweep_request("edge-meg", [16, 24], [6, 0], seed=7)

    def test_stopping_rejected_outside_sweeps(self):
        with pytest.raises(SchemaError):
            WorkRequest(
                kind="flood", family="edge-meg", trials=4,
                stopping=StoppingRule(target_halfwidth=1.0),
            )

    def test_invalid_stopping_payload(self):
        with pytest.raises(InvalidParameterError):
            sweep_request("edge-meg", [16], 8, stopping={"bogus": 1})


class TestFleetAdaptive:
    def test_stopping_request_refuses_sharding(self):
        request = sweep_request(
            "edge-meg", [16], 32, seed=7, stopping={"target_halfwidth": 0.5}
        )
        plan = compile_request(request)
        with pytest.raises(InvalidParameterError, match="cannot be trial-sharded"):
            request_job_payloads(plan, 2)
        assert len(request_job_payloads(plan, 1)) == 1

    def test_plan_variance_budgets_derives_fixed_request(self):
        request = sweep_request("edge-meg", [16, 24], 64, seed=7)
        derived, report = plan_variance_budgets(
            request, 0.4, pilot_trials=8, confidence=0.95
        )
        assert derived.stopping is None
        assert isinstance(derived.trials, tuple)
        assert len(derived.trials) == 2
        assert all(8 <= budget <= 64 for budget in derived.trials)
        assert report["total_budget"] == sum(derived.trials)
        assert report["fixed_total"] == 128
        assert [p["budget"] for p in report["points"]] == list(derived.trials)

    def test_plan_variance_budgets_rejects_store_engine(self, tmp_path):
        request = sweep_request("edge-meg", [16], 32, seed=7)
        engine = Engine(store=ResultStore(str(tmp_path / "polluted")))
        with pytest.raises(ValueError, match="store"):
            plan_variance_budgets(request, 0.4, engine=engine)

    def test_sized_budgets_roundtrip_through_fleet(self, tmp_path):
        request = sweep_request("edge-meg", [16, 24], 32, seed=7)
        derived, _ = plan_variance_budgets(request, 0.4, pilot_trials=8)

        # Reference: run the derived per-point budgets directly.
        plan = compile_request(derived)
        batches = plan.run(Engine())
        reference = [measurement_from_batch(job.spec, batches[job.tag]) for job in plan.jobs]

        # Fleet: shard the derived request, execute each job, fan in.
        spool = JobSpool(str(tmp_path / "spool"))
        payloads = request_job_payloads(plan, 2)
        for payload in payloads:
            spool.resolve(payload["store"])
            execute_job(payload, spool)
        destination = ResultStore(str(tmp_path / "merged"))
        merge_fleet_stores(spool, plan, payloads, destination)

        fleet_measurements = [
            measurement_from_record(job.spec, destination.get(batch_store_key(job.spec)))
            for job in plan.jobs
        ]
        assert [m.samples for m in fleet_measurements] == [
            m.samples for m in reference
        ]

    def test_pilot_trials_prefix_of_sized_run(self):
        # Seed-prefix determinism: the pilot's samples are an exact prefix
        # of the sized run's, so pilot work is never statistically wasted.
        request = sweep_request("edge-meg", [16], 32, seed=7)
        derived, report = plan_variance_budgets(request, 0.4, pilot_trials=8)
        from dataclasses import replace

        plan = compile_request(derived)
        sized = Engine().run(plan.jobs[0].spec)
        pilot = Engine().run(replace(plan.jobs[0].spec, num_trials=8))
        assert pilot.flooding_times == sized.flooding_times[:8]
        assert report["points"][0]["pilot_mean"] == pytest.approx(
            sum(pilot.flooding_times) / 8
        )

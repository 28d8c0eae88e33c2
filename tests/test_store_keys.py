"""Store keys: closed-form derivation, pinned bytes, one derivation per request.

A batch key hashes the spec's cache token plus the ``seed_token`` of the
per-trial ``SeedSequence`` children.  The key is written in closed form from
(entropy, spawn-key prefix, first child index, count) instead of spawning
and encoding one dict per trial.  These tests hold it to the spawning path
(``seed_token(spawn_seed_sequences(...))``, kept as the oracle) and pin the
absolute key bytes, so stores, shard records and ETags written before the
closed form stay addressable.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.shard as shard_module
import repro.util.rng as rng_module
from repro.api import compile_request, experiment_request, flood_request, sweep_request
from repro.engine import (
    Engine,
    ResultStore,
    ShardSpec,
    TrialSpec,
    batch_store_key,
    seed_token,
    shard_store_key,
)
from repro.engine.store import SeedRange
from repro.fleet import JobSpool
from repro.meg.edge_meg import EdgeMEG
from repro.mobility.random_waypoint import RandomWaypoint
from repro.serve import SimulationService, plan_etag
from repro.stats import sketch_salt
from repro.stats.sequential import StoppingRule
from repro.telemetry import core as telemetry
from repro.telemetry.report import format_report, telemetry_report
from repro.util.rng import spawn_seed_sequences


def _spec(seed, trials: int = 5, **extra) -> TrialSpec:
    return TrialSpec(
        factory=EdgeMEG,
        args=(16,),
        kwargs={"p": 0.1, "q": 0.2},
        num_trials=trials,
        seed=seed,
        **extra,
    )


def _oracle_key(token: dict, material, count: int) -> str:
    seeds = seed_token(spawn_seed_sequences(material, count))
    return ResultStore.compute_key({**token, "seeds": seeds})


class TestGoldenKeys:
    """Literal key bytes, computed with the per-trial spawning derivation."""

    def test_int_seed(self):
        assert (
            batch_store_key(_spec(7))
            == "553919034f9976df11898b4e938c4b0ed1e1f8422e842ce561d7878fa8f39d24"
        )

    def test_huge_int_seed(self):
        assert (
            batch_store_key(_spec(2**100))
            == "32bc3ba6998f6db65878b0caef94b0c700cbb0a542ccb5d07f1636fbb0141c77"
        )

    def test_seed_sequence_child(self):
        seq = np.random.SeedSequence(1234, spawn_key=(1,), n_children_spawned=3)
        assert (
            batch_store_key(_spec(seq))
            == "7f060c8e3abfa5a4e88ae76d0509587f9e5d3bc72cf1e3b8600fe77aea86e307"
        )

    def test_128_bit_entropy(self):
        seq = np.random.SeedSequence(2**127 + 12345)
        assert (
            batch_store_key(_spec(seq))
            == "d7570bd7fcf5ade2614115f8224b74bbcc3a813edac48b96e1561518e52497d8"
        )

    def test_entropy_word_list(self):
        seq = np.random.SeedSequence([1, 2**40, 3, 4])
        assert (
            batch_store_key(_spec(seq))
            == "94ccf56b8ed7aa363841a8b1b5ec69008bfe2efe67ee6c980b4f96fb44cb697c"
        )

    def test_300_trials(self):
        assert (
            batch_store_key(_spec(np.random.SeedSequence(5), trials=300))
            == "fbc43dbe04ff1d7185ca1f94be9b56315da36c2ef067b14db3870f3f9db33f4c"
        )

    def test_zero_trials(self):
        # TrialSpec rejects a zero count, but key derivation must still
        # encode an empty seeds array exactly as the spawning path did.
        spec = _spec(7, trials=1)
        object.__setattr__(spec, "num_trials", 0)
        assert (
            batch_store_key(spec)
            == "057f797e1c4aa153fc65bc98566f2ad8762f8bbe83483f4097fd286390266843"
        )

    def test_tagged_adaptive_spec(self):
        spec = _spec(
            9,
            trials=40,
            stopping=StoppingRule(target_halfwidth=0.5),
            tags=(("exp", "E1"),),
        )
        assert (
            batch_store_key(spec)
            == "ea184a9bab555db7dc50e058cd64eada0989f3d2a109630c08d8aeddf3ae2864"
        )

    def test_shard_key(self):
        assert (
            shard_store_key(batch_store_key(_spec(7)), 1, 3)
            == "68a1f1823edcea9f7977a7893c2483ef0ca13180c50cd41313342fd5a4c948ce"
        )

    def test_serve_etags(self):
        sweep = compile_request(sweep_request("edge-meg", [24, 32], 8, seed=7))
        assert plan_etag(sweep) == '"99e4e964c436af2f081e0b4f460df33a"'
        experiment = compile_request(experiment_request("E7", seed=3))
        assert plan_etag(experiment) == '"6ddce95332c834bfa93205ea69b27e3e"'

    def test_mobility_factory_keys(self):
        # Factory-keyed mobility jobs hash the factory and its arguments, never
        # the model's private state, so snapshot internals cannot move them.
        sweep = compile_request(sweep_request("waypoint", [24], 4, seed=7))
        assert sweep.store_keys == [
            "1884a5ec6aafece5e660e180b5954a8d9b7429dd39abbbc2e78ea72b06d5c0f0"
        ]
        e3 = compile_request(experiment_request("E3", seed=3))
        assert e3.store_keys == [
            "4ac8f6278c38bb6990991a5767e4b5812b633472ecea5005e8b83507faa27137",
            "bc4849e4acab9e95dc46edc589bf53cd3ababd197c93487aa4563cfb39ef3189",
            "b307d58c22627b4f5a723a2aa1aefd164df5bd7a300ddc9ef5b8b334cd6d8193",
        ]
        e4 = compile_request(experiment_request("E4", seed=3))
        assert e4.store_keys == [
            "8863bbbc60470a5af11e69d5adc93ce49b2443992bdd09726e946d3e3c48460d",
            "81653cb82d1e7f2e91d15ddc1007393bbf97e9ba49550be8cdfa4efc7ef40bea",
            "f0c5e1b8438384eb7fc97e9b8e18da78de713d22cffde703de1819d17ed25e81",
        ]

    def test_sketch_salt(self):
        assert sketch_salt(seed_token(spawn_seed_sequences(7, 5))) == 3848894767485456737
        assert shard_module.batch_salt(SeedRange.of(7, 5)) == 3848894767485456737


class TestRandomWaypointKey:
    """A wrapped waypoint model is keyed by its constructor parameters."""

    @staticmethod
    def _key(model) -> str:
        return batch_store_key(TrialSpec.from_model(model, num_trials=4, seed=1))

    def test_flood_request_key(self):
        plan = compile_request(flood_request("waypoint", 4, seed=1, params={"nodes": 20}))
        assert plan.store_keys == [
            "6c8ff30d3093a5394c06e47130fb0068c157fcc4e991a0c6fecf78b5a8be4689"
        ]

    def test_equal_parameters_equal_keys(self):
        first = RandomWaypoint(20, side=10.0, radius=1.0, v_min=1.0)
        second = RandomWaypoint(20, side=10, radius=1, v_min=1.0, v_max=1.0)
        assert first.cache_token() == second.cache_token()
        assert self._key(first) == self._key(second)
        for changed in (
            RandomWaypoint(20, side=10.0, radius=1.0, v_min=1.0, pause_steps=1),
            RandomWaypoint(20, side=10.0, radius=1.0, v_min=1.0, warmup_steps=0),
            RandomWaypoint(20, side=10.0, radius=1.0, v_min=1.0, snap_resolution=8),
            RandomWaypoint(20, side=10.0, radius=1.0, v_min=0.5, v_max=1.0),
        ):
            assert self._key(changed) != self._key(first)

    def test_reset_and_step_keep_the_key(self):
        model = RandomWaypoint(20, side=10.0, radius=1.0, v_min=1.0)
        before = self._key(model)
        model.reset(3)
        model.edge_pairs()
        assert self._key(model) == before
        model.step()
        model.snapshot_tree()
        assert self._key(model) == before


_ENTROPY = st.one_of(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2**64, max_value=2**160),
    st.lists(st.integers(min_value=0, max_value=2**64), min_size=1, max_size=5),
)


class TestClosedFormOracle:
    @given(
        entropy=_ENTROPY,
        prefix=st.lists(st.integers(min_value=0, max_value=2**40), max_size=3),
        spawned=st.integers(min_value=0, max_value=10**6),
        count=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_seed_sequence_material(self, entropy, prefix, spawned, count):
        seq = np.random.SeedSequence(
            entropy, spawn_key=tuple(prefix), n_children_spawned=spawned
        )
        token = {"model": {"factory": "m", "args": "(16,)"}, "num_trials": count}
        closed = SeedRange.of(seq, count)
        expected = seed_token(spawn_seed_sequences(seq, count))
        assert closed.text == json.dumps(expected, sort_keys=True, separators=(",", ":"))
        assert ResultStore.compute_key({**token, "seeds": closed}) == _oracle_key(
            token, seq, count
        )
        # The closed form never mutates the material it describes.
        assert seq.n_children_spawned == spawned

    @given(
        seed=st.one_of(
            st.integers(min_value=0, max_value=2**31),
            st.integers(min_value=2**64, max_value=2**200),
        ),
        count=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_int_material(self, seed, count):
        # Token keys on both sides of "seeds" in sorted order, with nesting.
        token = {"a": [1, 2.5, None], "num_trials": count, "source": 0, "tags": {"k": "v"}}
        key = ResultStore.compute_key({**token, "seeds": SeedRange.of(seed, count)})
        assert key == _oracle_key(token, seed, count)

    def test_numpy_integer_material(self):
        token = {"num_trials": 3}
        key = ResultStore.compute_key({**token, "seeds": SeedRange.of(np.int64(11), 3)})
        assert key == _oracle_key(token, 11, 3)

    def test_generator_and_none_have_no_closed_form(self):
        assert SeedRange.of(np.random.default_rng(1), 3) is None
        assert SeedRange.of(None, 3) is None

    def test_invalid_material_fails_like_spawning(self):
        with pytest.raises(ValueError):
            SeedRange.of(-1, 3)
        with pytest.raises(ValueError):
            SeedRange.of(5, -1)


class TestEngineDerivation:
    def test_generator_seed_advances_like_one_spawn(self, tmp_path):
        """A Generator-seeded run spawns its trial seeds exactly once."""
        for store in (None, ResultStore(str(tmp_path / "store"))):
            generator = np.random.default_rng(5)
            engine = Engine(store=store)
            engine.run(_spec(generator, trials=4))
            assert generator.bit_generator.seed_seq.n_children_spawned == 4
            engine.run(_spec(generator, trials=4))
            assert generator.bit_generator.seed_seq.n_children_spawned == 8
            engine.run_shard(ShardSpec(_spec(generator, trials=4), 1, 2))
            assert generator.bit_generator.seed_seq.n_children_spawned == 12

    def test_generator_run_keys_its_spawned_children(self, tmp_path):
        """A fresh default_rng(5) spawns the children int seed 5 spawns."""
        store = ResultStore(str(tmp_path / "store"))
        first = Engine(store=store).run(_spec(np.random.default_rng(5), trials=4))
        again = Engine(store=store).run(_spec(5, trials=4))
        assert again.from_cache
        assert again.flooding_times == first.flooding_times

    def test_warm_hit_spawns_no_seed_sequences(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        spec = _spec(np.random.SeedSequence(3, spawn_key=(2,)), trials=6)
        cold = Engine(store=store).run(spec)
        Engine(store=store).run_shard(ShardSpec(spec, 0, 2))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a warm hit spawned seed sequences")

        monkeypatch.setattr(shard_module, "spawn_seed_sequences", forbidden)
        monkeypatch.setattr(rng_module, "spawn_seed_sequences", forbidden)
        warm = Engine(store=store).run(spec)
        assert warm.from_cache and warm.flooding_times == cold.flooding_times
        shard = Engine(store=store).run_shard(ShardSpec(spec, 0, 2))
        assert shard.from_cache and shard.flooding_times == cold.flooding_times[0::2]


class TestOncePerRequest:
    BODY = {"kind": "sweep", "family": "edge-meg", "nodes": [12, 16], "trials": 4, "seed": 7}

    @pytest.fixture
    def counted(self, tmp_path, monkeypatch):
        service = SimulationService(
            ResultStore(str(tmp_path / "store")), JobSpool(tmp_path / "spool")
        )
        plan = compile_request(sweep_request("edge-meg", [12, 16], 4, seed=7))
        engine = Engine(store=service.store)
        for job in plan.jobs:
            engine.run(job.spec)
        service.store.refresh()
        calls = []
        original = ResultStore.compute_key

        def counting(token):
            calls.append(token)
            return original(token)

        monkeypatch.setattr(ResultStore, "compute_key", staticmethod(counting))
        return service, len(plan.jobs), calls

    def test_warm_hit_derives_each_key_once(self, counted):
        service, jobs, calls = counted
        result = service.submit(dict(self.BODY))
        assert result.status == 200 and result.headers["X-Cache"] == "hit"
        assert len(calls) == jobs

    def test_revalidation_derives_each_key_once(self, counted):
        service, jobs, calls = counted
        etag = service.submit(dict(self.BODY)).headers["ETag"]
        calls.clear()
        result = service.submit(dict(self.BODY), if_none_match=etag)
        assert result.status == 304
        assert len(calls) == jobs

    def test_compiled_plan_derives_keys_once(self, counted):
        _service, jobs, calls = counted
        plan = compile_request(sweep_request("edge-meg", [12, 16], 4, seed=7))
        assert plan.store_keys is plan.store_keys
        assert len(calls) == jobs


class TestKeyTelemetry:
    def test_key_timing_recorded_when_enabled(self, tmp_path):
        instance = telemetry.enable(str(tmp_path / "telemetry"), process="p")
        try:
            key = batch_store_key(_spec(7))
            timings = instance.metrics_snapshot()["timings"]
            assert timings["store.key_seconds"]["count"] == 1
        finally:
            telemetry.disable()
        assert key == batch_store_key(_spec(7))
        summary = telemetry_report(str(tmp_path / "telemetry"))
        assert summary["store"]["key"]["count"] == 1
        assert "store key derivation: x1" in format_report(summary)

    def test_key_timing_is_a_no_op_when_disabled(self, monkeypatch):
        assert telemetry.active() is None

        def forbidden(*_args, **_kwargs):
            raise AssertionError("timing recorded with telemetry off")

        monkeypatch.setattr(telemetry.Telemetry, "timing", forbidden)
        assert len(batch_store_key(_spec(7))) == 64

"""Tests for deterministic sharding: ShardSpec, Engine.run_shard, store merge.

The contract under test is the one CI's fan-out/fan-in job relies on: shard
``i`` of ``K`` produces bit-identical samples to trials ``i, i+K, i+2K, ...``
of the unsharded run — at any worker count — and merging the shard stores
reassembles a store bit-identical (same keys, same payloads) to the one an
unsharded run would have written.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine import (
    Engine,
    MergeConflictError,
    ResultStore,
    ShardSpec,
    TrialSpec,
    batch_store_key,
    parse_shard,
    shard_specs,
    shard_store_key,
)
from repro.engine.shard import key_seeds, trial_seeds
from repro.experiments.runner import measure_flooding_sweep
from repro.graphs.grid import augmented_grid_graph, grid_graph
from repro.markov.builders import random_walk_on_graph
from repro.meg.edge_meg import EdgeMEG
from repro.meg.node_meg import NodeMEG
from repro.mobility.random_path import GraphRandomWalkMobility
from repro.mobility.random_waypoint import RandomWaypoint


def _node_meg(num_nodes: int = 20) -> NodeMEG:
    chain = random_walk_on_graph(grid_graph(3)).lazy(0.2)
    return NodeMEG(
        num_nodes,
        chain,
        lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1,
    )


def _family_model(family: str):
    if family == "edge-meg":
        return EdgeMEG(24, p=0.12, q=0.4)
    if family == "node-meg":
        return _node_meg(20)
    if family == "grid":
        return GraphRandomWalkMobility(18, augmented_grid_graph(4, 2), radius_hops=1)
    return RandomWaypoint(18, side=4.0, radius=1.2, v_min=1.0)


FAMILIES = ["edge-meg", "node-meg", "grid", "mobility"]
_REFERENCE_CACHE: dict[str, tuple] = {}


def _family_spec(family: str) -> TrialSpec:
    return TrialSpec.from_model(_family_model(family), num_trials=7, seed=11)


def _reference_times(family: str) -> tuple:
    if family not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[family] = Engine().run(_family_spec(family)).flooding_times
    return _REFERENCE_CACHE[family]


class TestShardSpec:
    def test_trial_indices_stride(self):
        spec = TrialSpec.from_model(EdgeMEG(10, p=0.2, q=0.4), num_trials=10, seed=0)
        shard = ShardSpec(spec, index=1, count=3)
        assert list(shard.trial_indices) == [1, 4, 7]
        assert shard.num_trials == 3

    def test_shards_partition_the_batch(self):
        spec = TrialSpec.from_model(EdgeMEG(10, p=0.2, q=0.4), num_trials=11, seed=0)
        shards = shard_specs(spec, 4)
        indices = sorted(i for shard in shards for i in shard.trial_indices)
        assert indices == list(range(11))

    def test_shard_seeds_match_unsharded_spawn(self):
        spec = TrialSpec.from_model(EdgeMEG(10, p=0.2, q=0.4), num_trials=9, seed=5)
        shard = ShardSpec(spec, index=2, count=4)
        all_seeds = trial_seeds(spec, key_seeds(spec))
        shard_seeds = [all_seeds[i] for i in shard.trial_indices]
        assert [s.spawn_key for s in shard_seeds] == [
            all_seeds[i].spawn_key for i in [2, 6]
        ]

    def test_validation(self):
        spec = TrialSpec.from_model(EdgeMEG(10, p=0.2, q=0.4), num_trials=5, seed=0)
        with pytest.raises(ValueError):
            ShardSpec(spec, index=3, count=3)
        with pytest.raises(ValueError):
            ShardSpec(spec, index=-1, count=3)
        with pytest.raises(ValueError):
            ShardSpec(spec, index=0, count=0)
        with pytest.raises(TypeError):
            ShardSpec("not a spec", index=0, count=1)

    def test_empty_shard_allowed(self):
        spec = TrialSpec.from_model(EdgeMEG(10, p=0.2, q=0.4), num_trials=2, seed=0)
        shard = ShardSpec(spec, index=2, count=3)
        assert shard.num_trials == 0
        result = Engine().run_shard(shard)
        assert result.flooding_times == ()
        assert result.num_nodes == 10

    def test_parse_shard(self):
        assert parse_shard("0/3") == (0, 3)
        assert parse_shard("2/7") == (2, 7)
        for bad in ("3/3", "-1/3", "1", "a/b", "1/2/3", "0/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestShardDeterminism:
    """Satellite: K-sharded merged == unsharded, every family, K in {2,3,7}."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("count", [2, 3, 7])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_equals_unsharded_sample_for_sample(self, family, count, workers):
        reference = _reference_times(family)
        spec = _family_spec(family)
        engine = Engine(workers=workers)
        merged: list = [None] * spec.num_trials
        for shard in shard_specs(spec, count):
            times = engine.run_shard(shard).flooding_times
            assert times == reference[shard.index :: count]
            merged[shard.index :: count] = times
        assert tuple(merged) == reference


class TestShardStore:
    def _spec(self) -> TrialSpec:
        return TrialSpec.from_model(EdgeMEG(24, p=0.12, q=0.4), num_trials=7, seed=11)

    def test_merged_shard_stores_equal_unsharded_store(self, tmp_path):
        spec = self._spec()
        reference = ResultStore(tmp_path / "reference")
        Engine(store=reference).run(spec)
        stores = []
        for shard in shard_specs(spec, 3):
            store = ResultStore(tmp_path / f"shard{shard.index}")
            Engine(store=store).run_shard(shard)
            stores.append(store)
        merged = ResultStore(tmp_path / "merged")
        report = merged.merge(*stores)
        assert report.assembled == 1
        assert report.pending_shards == 0
        assert {k: merged.get(k) for k in merged.keys()} == {
            k: reference.get(k) for k in reference.keys()
        }
        # Byte-identical files once the reference is in canonical form.
        reference.compact()
        with open(reference.path, encoding="utf-8") as handle:
            reference_bytes = handle.read()
        with open(merged.path, encoding="utf-8") as handle:
            merged_bytes = handle.read()
        assert reference_bytes == merged_bytes

    def test_shard_record_is_self_describing(self, tmp_path):
        spec = self._spec()
        store = ResultStore(tmp_path)
        shard = ShardSpec(spec, index=1, count=3)
        Engine(store=store).run_shard(shard)
        parent = batch_store_key(spec)
        record = store.get(shard_store_key(parent, 1, 3))
        assert record["shard"] == {"index": 1, "count": 3, "num_trials": 7}
        assert record["parent_key"] == parent
        assert len(record["flooding_times"]) == shard.num_trials

    def test_shard_rerun_served_from_cache(self, tmp_path):
        spec = self._spec()
        store = ResultStore(tmp_path)
        shard = ShardSpec(spec, index=0, count=2)
        first = Engine(store=store).run_shard(shard)
        second = Engine(store=store).run_shard(shard)
        assert not first.from_cache
        assert second.from_cache
        assert second.flooding_times == first.flooding_times

    def test_full_batch_record_serves_shards(self, tmp_path):
        spec = self._spec()
        store = ResultStore(tmp_path)
        full = Engine(store=store).run(spec)
        shard_result = Engine(store=store).run_shard(ShardSpec(spec, index=1, count=3))
        assert shard_result.from_cache
        assert shard_result.flooding_times == full.flooding_times[1::3]

    def test_mixed_backend_shards_assemble_with_identical_samples(self, tmp_path):
        spec = self._spec()
        reference = Engine().run(spec).flooding_times
        backends = {0: "auto", 1: "set", 2: "vectorized"}
        stores = []
        for shard in shard_specs(spec, 3):
            store = ResultStore(tmp_path / f"shard{shard.index}")
            Engine(store=store, backend=backends[shard.index]).run_shard(shard)
            stores.append(store)
        merged = ResultStore(tmp_path / "merged")
        report = merged.merge(*stores)
        assert report.assembled == 1
        record = merged.get(batch_store_key(spec))
        assert tuple(record["flooding_times"]) == reference
        assert record["backend"] == "mixed"

    def test_incomplete_shard_group_kept_pending(self, tmp_path):
        spec = self._spec()
        stores = []
        for shard in shard_specs(spec, 3)[:2]:  # one shard missing
            store = ResultStore(tmp_path / f"shard{shard.index}")
            Engine(store=store).run_shard(shard)
            stores.append(store)
        merged = ResultStore(tmp_path / "merged")
        report = merged.merge(*stores)
        assert report.assembled == 0
        assert report.pending_shards == 2
        assert len(merged) == 2
        # Merging in the last shard later completes the batch.
        last = ResultStore(tmp_path / "shard2")
        Engine(store=last).run_shard(shard_specs(spec, 3)[2])
        report = merged.merge(last)
        assert report.assembled == 1
        assert len(merged) == 1


class TestStoreMerge:
    def test_union_of_disjoint_stores(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put("k1", {"value": 1})
        b.put("k2", {"value": 2})
        merged = ResultStore(tmp_path / "out")
        report = merged.merge(a, b)
        assert report.records == 2
        assert report.adopted == 2
        assert merged.get("k1") == {"value": 1}
        assert merged.get("k2") == {"value": 2}

    def test_identical_payloads_deduplicate(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put("k", {"value": 1})
        b.put("k", {"value": 1})
        merged = ResultStore(tmp_path / "out")
        assert merged.merge(a, b).records == 1

    def test_conflicting_payloads_raise(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put("k", {"value": 1})
        b.put("k", {"value": 2})
        merged = ResultStore(tmp_path / "out")
        with pytest.raises(MergeConflictError):
            merged.merge(a, b)

    def test_merge_accepts_paths_and_stores(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.put("k1", {"value": 1})
        merged = ResultStore(tmp_path / "out")
        report = merged.merge(str(tmp_path / "a"))  # directory path
        assert report.records == 1
        report = merged.merge(a.path)  # explicit .jsonl path
        assert report.records == 1

    def test_malformed_shard_record_carried_verbatim(self, tmp_path):
        # Shard-shaped but missing num_trials: not assemblable, must survive
        # the merge untouched instead of crashing it.
        malformed = {
            "shard": {"index": 0, "count": 2},
            "parent_key": "p",
            "flooding_times": [1, 2],
        }
        a = ResultStore(tmp_path / "a")
        a.put("k", malformed)
        merged = ResultStore(tmp_path / "out")
        report = merged.merge(a)
        assert report.assembled == 0
        assert report.pending_shards == 0  # not recognised as a shard at all
        assert merged.get("k") == malformed

    def test_missing_source_fails_loudly_without_side_effects(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.put("k1", {"value": 1})
        merged = ResultStore(tmp_path / "out")
        with pytest.raises(FileNotFoundError):
            merged.merge(a, tmp_path / "no-such-shard")
        assert not (tmp_path / "no-such-shard").exists()
        assert len(merged) == 0  # nothing partially merged

    def test_merge_into_nonempty_store(self, tmp_path):
        merged = ResultStore(tmp_path / "out")
        merged.put("existing", {"value": 0})
        a = ResultStore(tmp_path / "a")
        a.put("k1", {"value": 1})
        report = merged.merge(a)
        assert report.records == 2
        assert merged.get("existing") == {"value": 0}

    def test_store_at_jsonl_and_directory(self, tmp_path):
        by_file = ResultStore.at(tmp_path / "out.jsonl")
        assert by_file.path == str(tmp_path / "out.jsonl")
        by_dir = ResultStore.at(tmp_path / "subdir")
        assert by_dir.path == str(tmp_path / "subdir" / "results.jsonl")


class TestSweepSharding:
    def test_sweep_shard_samples_are_slices(self):
        common = dict(num_trials=6, rng=7, factory_kwargs={"q": 0.4})
        full = measure_flooding_sweep(_sweep_factory, [12, 16], **common)
        for index in range(3):
            part = measure_flooding_sweep(
                _sweep_factory, [12, 16], shard=(index, 3), **common
            )
            for full_point, part_point in zip(full, part):
                assert part_point.samples == full_point.samples[index::3]

    def test_sweep_rejects_empty_shards(self):
        with pytest.raises(ValueError):
            measure_flooding_sweep(
                _sweep_factory, [12], num_trials=2, rng=0, shard=(0, 3)
            )


def _sweep_factory(num_nodes: int, q: float = 0.3) -> EdgeMEG:
    """Module-level sweep factory with a stable cache identity."""
    return EdgeMEG(num_nodes, p=0.1, q=q)


class TestSweepCLI:
    def test_sweep_runs_and_reports(self, capsys):
        code = main(
            ["sweep", "edge-meg", "--nodes", "16,20", "--trials", "4", "--seed", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sweep:  edge-meg over n = [16, 20]" in output
        assert "n=    16" in output

    def test_sweep_shard_merge_matches_reference(self, tmp_path, capsys):
        base = [
            "sweep", "edge-meg", "--nodes", "14,18", "--trials", "5", "--seed", "3",
        ]
        for index in range(3):
            code = main(
                base
                + ["--shard", f"{index}/3", "--results-dir", str(tmp_path / f"s{index}")]
            )
            assert code == 0
        merged_path = str(tmp_path / "merged.jsonl")
        code = main(
            ["merge-results", merged_path]
            + [str(tmp_path / f"s{index}") for index in range(3)]
        )
        assert code == 0
        assert "assembled batches: 2" in capsys.readouterr().out
        code = main(base + ["--results-dir", str(tmp_path / "reference")])
        assert code == 0
        reference = ResultStore(tmp_path / "reference")
        reference.compact()
        with open(reference.path, encoding="utf-8") as handle:
            reference_bytes = handle.read()
        with open(merged_path, encoding="utf-8") as handle:
            merged_bytes = handle.read()
        assert reference_bytes == merged_bytes

    def test_sweep_json_output(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep", "edge-meg", "--nodes", "14", "--trials", "3", "--seed", "1",
                "--shard", "1/2", "--json", str(json_path),
            ]
        )
        assert code == 0
        import json

        payload = json.loads(json_path.read_text())
        assert payload["shard"] == [1, 2]
        assert len(payload["measurements"]) == 1

    def test_merge_conflict_exits_nonzero(self, tmp_path, capsys):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put("k", {"value": 1})
        b.put("k", {"value": 2})
        code = main(
            ["merge-results", str(tmp_path / "out"), str(tmp_path / "a"), str(tmp_path / "b")]
        )
        assert code == 1
        assert "merge failed" in capsys.readouterr().err

    def test_invalid_shard_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "edge-meg", "--nodes", "14", "--shard", "3/3"])

    def test_shard_count_beyond_trials_is_a_clean_error(self, capsys):
        code = main(
            ["sweep", "edge-meg", "--nodes", "14", "--trials", "2", "--shard", "0/5"]
        )
        assert code == 2
        assert "exceeds --trials" in capsys.readouterr().err

    def test_merge_missing_source_exits_nonzero(self, tmp_path, capsys):
        a = ResultStore(tmp_path / "a")
        a.put("k1", {"value": 1})
        code = main(
            ["merge-results", str(tmp_path / "out"), str(tmp_path / "a"),
             str(tmp_path / "missing")]
        )
        assert code == 1
        assert "no result store at" in capsys.readouterr().err

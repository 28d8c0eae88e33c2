"""Tests for the persistent result store and engine-level caching."""

from __future__ import annotations

import enum
import json
from collections import OrderedDict, namedtuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, ResultStore, ShardSpec, TrialSpec, jsonify
from repro.experiments.registry import colocation_node_meg_model
from repro.experiments.runner import measure_flooding_sweep
from repro.graphs.grid import augmented_grid_graph, grid_graph
from repro.graphs.paths import edge_paths
from repro.meg.base import StaticGraphProcess
from repro.meg.edge_meg import EdgeMEG
from repro.mobility.random_path import GraphRandomWalkMobility, RandomPathModel
from repro.telemetry import core as telemetry


def make_sweep_model(num_nodes: int) -> EdgeMEG:
    """Module-level sweep factory with a stable cache identity."""
    return EdgeMEG(num_nodes, p=0.1, q=0.3)


def _state_keyed_model(family: str):
    """A wrapped model without a parameter-level cache token."""
    if family == "node-meg":
        return colocation_node_meg_model(12, 3)
    if family == "grid-walk":
        return GraphRandomWalkMobility(12, augmented_grid_graph(3, 1), radius_hops=1)
    return RandomPathModel(12, edge_paths(grid_graph(3)), radius_hops=1)


def _reference_jsonify(value):
    """``jsonify`` as a plain ``isinstance`` chain, without fast paths."""
    if isinstance(value, dict):
        return {str(k): _reference_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 0 and value.dtype.kind in "biuf":
            return value.tolist()
        return [_reference_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _outcome(convert, value):
    """JSON text and node types of ``convert(value)``, or the error it raises."""
    try:
        converted = convert(value)
    except TypeError as error:
        return type(error)
    return json.dumps(converted), _container_types(converted)


def _container_types(value):
    """The type of every node and key of a jsonified value, as a nested structure."""
    if isinstance(value, dict):
        return (type(value), [(type(k), k, _container_types(v)) for k, v in value.items()])
    if isinstance(value, list):
        return (type(value), [_container_types(v) for v in value])
    return type(value)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Tag(str):
    pass


_Pair = namedtuple("_Pair", "left right")

_SMALL_INTS = st.integers(min_value=-(2**40), max_value=2**40)
_FLOATS = st.floats(allow_nan=False, width=64)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _SMALL_INTS,
    st.integers(min_value=-(2**70), max_value=2**70),
    _FLOATS,
    st.text(max_size=4),
    _SMALL_INTS.map(np.int64),
    _SMALL_INTS.map(lambda v: np.int32(v % 2**31)),
    _FLOATS.map(np.float64),
    _FLOATS.map(lambda v: np.float32(v if abs(v) < 1e30 else 0.0)),
    st.booleans().map(np.bool_),
    st.sampled_from(list(_Level)),
    st.text(max_size=3).map(_Tag),
    _SMALL_INTS.map(np.array),
    _FLOATS.map(np.array),
    st.booleans().map(np.array),
)
_ARRAYS = st.one_of(
    st.lists(_SMALL_INTS, max_size=6).map(lambda items: np.array(items, dtype=np.int64)),
    st.lists(_FLOATS, min_size=2, max_size=6).map(
        lambda items: np.array(items[: len(items) // 2 * 2]).reshape(2, -1)
    ),
)
_KEYS = st.one_of(
    st.text(max_size=3),
    _SMALL_INTS,
    st.sampled_from(list(_Level)),
    st.text(max_size=3).map(_Tag),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.tuples(inner, inner).map(lambda pair: _Pair(*pair)),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=20,
)


class TestJsonify:
    def test_numpy_scalars_and_arrays(self):
        payload = jsonify(
            {
                "i": np.int64(3),
                "f": np.float64(1.5),
                "b": np.bool_(True),
                "a": np.arange(3),
                "nested": [np.int32(1), (np.float32(2.0),)],
            }
        )
        assert json.dumps(payload)  # round-trips through the json module
        assert payload["i"] == 3 and payload["a"] == [0, 1, 2]

    @given(value=st.deferred(lambda: _JSON_VALUES))
    @example(value=[np.float64(1.5), 2])
    @example(value=(_Level.HIGH, np.bool_(True), "x"))
    @example(value={_Tag("k"): [None, 1.0], 3: {"a": np.int64(4)}})
    @settings(max_examples=300, deadline=None)
    def test_matches_isinstance_chain(self, value):
        assert _outcome(jsonify, value) == _outcome(_reference_jsonify, value)

    @pytest.mark.parametrize(
        "array, scalar",
        [
            (np.array(3), 3),
            (np.array(2.5), 2.5),
            (np.array(True), True),
            (np.array(7, dtype=np.uint8), 7),
            (np.array(0.5, dtype=np.float32), 0.5),
        ],
    )
    def test_zero_dimensional_numeric_array_is_its_scalar(self, array, scalar):
        converted = jsonify(array)
        assert converted == scalar and type(converted) is type(scalar)
        assert jsonify({"a": array}) == {"a": scalar}
        assert jsonify([array, (array,)]) == [scalar, [scalar]]

    def test_other_arrays_convert_as_before(self):
        # What the conversion gave before 0-d numeric arrays were accepted;
        # store keys hash these outputs, so none may move.
        assert jsonify(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]
        assert jsonify(np.arange(3.0).reshape(1, 3)) == [[0.0, 1.0, 2.0]]
        assert jsonify(np.array([], dtype=np.int64)) == []
        assert jsonify(np.array("ab")) == ["a", "b"]
        assert jsonify(np.array(["x", "y"])) == ["x", "y"]
        with pytest.raises(TypeError):
            jsonify(np.array(None, dtype=object))

    def test_plain_list_is_a_fresh_list(self):
        samples = (3, 1, 2)
        assert jsonify(samples) == [3, 1, 2]
        listed = [1.5, None, True, "x"]
        assert jsonify(listed) == listed and jsonify(listed) is not listed

    def test_compute_key_ignores_dict_order(self):
        a = ResultStore.compute_key({"x": 1, "y": [2, 3]})
        b = ResultStore.compute_key({"y": [2, 3], "x": 1})
        assert a == b

    def test_compute_key_sensitive_to_values(self):
        assert ResultStore.compute_key({"x": 1}) != ResultStore.compute_key({"x": 2})


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultStore.compute_key({"model": "test"})
        assert store.get(key) is None
        assert key not in store
        store.put(key, {"flooding_times": [1, 2, 3]})
        assert key in store
        assert len(store) == 1
        assert store.get(key) == {"flooding_times": [1, 2, 3]}

    def test_persistence_across_instances(self, tmp_path):
        key = ResultStore.compute_key({"model": "persist"})
        ResultStore(tmp_path).put(key, {"value": 42})
        reloaded = ResultStore(tmp_path)
        assert reloaded.get(key) == {"value": 42}
        assert list(reloaded.keys()) == [key]

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultStore.compute_key({"model": "ok"})
        store.put(key, {"value": 1})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated mid-append\n')
        reloaded = ResultStore(tmp_path)
        assert reloaded.get(key) == {"value": 1}
        assert len(reloaded) == 1

    def test_corrupt_lines_are_counted_in_telemetry(self, tmp_path):
        # A truncated tail line is dropped from the index either way; with
        # telemetry on the drop is counted, and the store's bytes (after a
        # merge, which rewrites the file) match the untraced run's exactly.
        def damaged_store(directory):
            store = ResultStore(directory)
            store.put(ResultStore.compute_key({"model": "a"}), {"value": 1})
            store.put(ResultStore.compute_key({"model": "b"}), {"value": 2})
            with open(store.path, "a", encoding="utf-8") as handle:
                handle.write('{"key": "c", "record": {"val')
            return ResultStore(directory)

        untraced = damaged_store(tmp_path / "off")
        assert len(untraced) == 2
        untraced.merge()
        instance = telemetry.activate(telemetry.Telemetry(process="store-test"))
        try:
            traced = damaged_store(tmp_path / "on")
            assert len(traced) == 2
            counters = instance.metrics_snapshot()["counters"]
            assert counters["store.scan.corrupt"] == 1
            traced.merge()
        finally:
            telemetry.deactivate(instance)
        with open(untraced.path, "rb") as off, open(traced.path, "rb") as on:
            assert off.read() == on.read()
        # A clean store never touches the counter.
        instance = telemetry.activate(telemetry.Telemetry(process="store-test"))
        try:
            assert len(ResultStore(tmp_path / "on")) == 2
            assert "store.scan.corrupt" not in instance.metrics_snapshot()["counters"]
        finally:
            telemetry.deactivate(instance)

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultStore.compute_key({"model": "dup"})
        store.put(key, {"value": 1})
        store.put(key, {"value": 2})
        assert ResultStore(tmp_path).get(key) == {"value": 2}
        # Both records remain in the append-only file.
        with open(store.path, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 2

    def test_index_built_lazily_on_first_lookup(self, tmp_path):
        key = ResultStore.compute_key({"model": "lazy"})
        ResultStore(tmp_path).put(key, {"value": 1})
        store = ResultStore(tmp_path)
        # Construction does not scan the file; the first lookup does, once.
        assert store._index is None
        assert store.get(key) == {"value": 1}
        assert store._index is not None

    def test_compact_drops_superseded_and_corrupt_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        key_a = ResultStore.compute_key({"model": "a"})
        key_b = ResultStore.compute_key({"model": "b"})
        store.put(key_a, {"value": 1})
        store.put(key_a, {"value": 2})  # supersedes the first write
        store.put(key_b, {"value": 3})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated mid-append\n')
        reloaded = ResultStore(tmp_path)
        assert reloaded.compact() == 2  # one duplicate + one corrupt line
        with open(reloaded.path, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 2
        fresh = ResultStore(tmp_path)
        assert fresh.get(key_a) == {"value": 2}
        assert fresh.get(key_b) == {"value": 3}

    def test_compact_idempotent_and_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.compact() == 0
        key = ResultStore.compute_key({"model": "one"})
        store.put(key, {"value": 1})
        assert store.compact() == 0
        assert ResultStore(tmp_path).get(key) == {"value": 1}


class TestEngineCaching:
    def test_cache_hit_returns_identical_samples(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(store=store)
        spec = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=5, seed=2)
        first = engine.run(spec)
        second = engine.run(spec)
        assert not first.from_cache
        assert second.from_cache
        assert first.flooding_times == second.flooding_times
        assert len(store) == 1

    def test_cache_miss_on_different_seed(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        model = EdgeMEG(20, p=0.1, q=0.3)
        engine.run(TrialSpec.from_model(model, num_trials=5, seed=2))
        other = engine.run(TrialSpec.from_model(model, num_trials=5, seed=3))
        assert not other.from_cache

    def test_cache_miss_on_different_model_parameters(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        engine.run(TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=5, seed=2))
        other = engine.run(
            TrialSpec.from_model(EdgeMEG(20, p=0.2, q=0.3), num_trials=5, seed=2)
        )
        assert not other.from_cache
        assert len(engine.store) == 2

    def test_cache_shared_across_engine_instances(self, tmp_path):
        spec_args = dict(num_trials=5, seed=2)
        first = Engine(store=ResultStore(tmp_path)).run(
            TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), **spec_args)
        )
        second = Engine(store=ResultStore(tmp_path)).run(
            TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), **spec_args)
        )
        assert second.from_cache
        assert second.flooding_times == first.flooding_times

    @pytest.mark.parametrize("family", ["node-meg", "grid-walk", "random-path"])
    @pytest.mark.parametrize(
        "engine_kwargs", [{}, {"workers": 2, "executor": "thread"}], ids=["serial", "thread"]
    )
    def test_wrapped_model_rerun_hits(self, tmp_path, family, engine_kwargs):
        # These models key on their pickled state, so the engine must flood a
        # private copy: stepping the caller's object would move the key.
        model = _state_keyed_model(family)
        engine = Engine(store=ResultStore(tmp_path), **engine_kwargs)
        spec = TrialSpec.from_model(model, num_trials=4, seed=5)
        first = engine.run(spec)
        second = engine.run(spec)
        assert not first.from_cache
        assert second.from_cache
        assert second.flooding_times == first.flooding_times
        sharded = Engine(store=ResultStore(tmp_path / "shards"), **engine_kwargs)
        shard = ShardSpec(spec, 1, 2)
        assert not sharded.run_shard(shard).from_cache
        assert sharded.run_shard(shard).from_cache

    def test_unpicklable_wrapped_model_runs_serially(self, tmp_path):
        model = StaticGraphProcess(nx.path_graph(5))
        model.hook = lambda: None  # a lambda attribute makes the model unpicklable
        engine = Engine(store=ResultStore(tmp_path))
        spec = TrialSpec.from_model(model, num_trials=2, seed=1)
        first = engine.run(spec)
        assert first.flooding_times == (4, 4)
        assert engine.run(spec).from_cache

    def test_no_store_never_caches(self):
        engine = Engine()
        spec = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=3, seed=0)
        assert not engine.run(spec).from_cache
        assert not engine.run(spec).from_cache


class TestSweepCaching:
    def test_sweep_served_from_cache_on_rerun(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        first = measure_flooding_sweep(
            make_sweep_model, [12, 16], num_trials=3, rng=7, engine=engine
        )
        second = measure_flooding_sweep(
            make_sweep_model, [12, 16], num_trials=3, rng=7, engine=engine
        )
        assert [m.from_cache for m in first] == [False, False]
        assert [m.from_cache for m in second] == [True, True]
        assert [m.samples for m in first] == [m.samples for m in second]
        assert len(engine.store) == 2

    def test_sweep_point_values_keyed_independently(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        measure_flooding_sweep(make_sweep_model, [12], num_trials=3, rng=7, engine=engine)
        extended = measure_flooding_sweep(
            make_sweep_model, [12, 16], num_trials=3, rng=7, engine=engine
        )
        # The first point is re-served from cache, the new point is computed.
        assert extended[0].from_cache
        assert not extended[1].from_cache

"""Tests for the repro.engine subsystem (specs, engine, kernels)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.flooding import flood, flooding_time_samples
from repro.engine import (
    Engine,
    TrialSpec,
    flood_sources_batch,
    flood_vectorized,
    resolve_backend,
)
from repro.meg.base import StaticGraphProcess, overrides
from repro.meg.edge_meg import EdgeMEG, four_state_edge_meg


def make_edge_meg(num_nodes: int) -> EdgeMEG:
    """Module-level factory (picklable, usable with workers > 1)."""
    return EdgeMEG(num_nodes, p=0.1, q=0.3)


class TestTrialSpec:
    def test_from_model_wraps_instance(self, small_edge_meg):
        spec = TrialSpec.from_model(small_edge_meg, num_trials=3, seed=0)
        assert spec.wraps_model
        assert spec.build_model() is small_edge_meg
        assert spec.label == "EdgeMEG"

    def test_factory_spec_builds_fresh_models(self):
        spec = TrialSpec(factory=make_edge_meg, args=(12,), num_trials=2)
        assert not spec.wraps_model
        assert spec.build_model() is not spec.build_model()
        assert spec.build_model().num_nodes == 12

    def test_invalid_num_trials(self, small_edge_meg):
        with pytest.raises(ValueError):
            TrialSpec.from_model(small_edge_meg, num_trials=0)

    def test_invalid_source(self, small_edge_meg):
        with pytest.raises(ValueError):
            TrialSpec.from_model(small_edge_meg, num_trials=1, source=-1)

    def test_invalid_max_steps(self, small_edge_meg):
        with pytest.raises(ValueError):
            TrialSpec.from_model(small_edge_meg, num_trials=1, max_steps=-5)

    def test_factory_must_be_callable(self):
        with pytest.raises(TypeError):
            TrialSpec(factory="not callable")

    def test_from_model_rejects_non_model(self):
        with pytest.raises(TypeError):
            TrialSpec.from_model("not a model", num_trials=1)

    def test_cache_token_sensitive_to_parameters(self):
        base = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=3)
        other_p = TrialSpec.from_model(EdgeMEG(20, p=0.2, q=0.3), num_trials=3)
        other_trials = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=4)
        assert base.cache_token() != other_p.cache_token()
        assert base.cache_token() != other_trials.cache_token()
        same = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=3)
        assert base.cache_token() == same.cache_token()


class TestEngineValidation:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            Engine(workers=0)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            Engine(backend="gpu")

    def test_resolve_backend(self, small_edge_meg):
        small_edge_meg.reset(0)
        assert resolve_backend("auto", small_edge_meg) == "vectorized"
        static = StaticGraphProcess(nx.path_graph(4))
        assert resolve_backend("auto", static) == "set"
        assert resolve_backend("set", small_edge_meg) == "set"
        with pytest.raises(ValueError):
            resolve_backend("gpu", small_edge_meg)


class TestEngineDeterminism:
    def test_matches_flooding_time_samples(self, small_edge_meg):
        expected = flooding_time_samples(small_edge_meg, 6, rng=0)
        spec = TrialSpec.from_model(small_edge_meg, num_trials=6, seed=0)
        result = Engine(workers=1).run(spec)
        assert list(result.flooding_times) == expected
        assert result.num_nodes == small_edge_meg.num_nodes
        assert not result.from_cache

    def test_workers_1_vs_4_bit_identical(self, small_edge_meg):
        spec = TrialSpec.from_model(small_edge_meg, num_trials=8, seed=7)
        serial = Engine(workers=1).run(spec)
        parallel = Engine(workers=4).run(spec)
        assert serial.flooding_times == parallel.flooding_times

    def test_workers_with_factory_spec(self):
        spec = TrialSpec(factory=make_edge_meg, args=(20,), num_trials=6, seed=3)
        serial = Engine(workers=1).run(spec)
        parallel = Engine(workers=4).run(spec)
        assert serial.flooding_times == parallel.flooding_times

    def test_stochastic_factory_builds_once_at_any_worker_count(self):
        # The factory draws a random structure; the engine must build the
        # model once per run so serial and parallel trials share one
        # realization (and a lambda factory is fine — only the model ships).
        def random_static_graph(_unused=None):
            graph = nx.gnp_random_graph(18, 0.4, seed=np.random.default_rng())
            graph.add_edges_from(nx.path_graph(18).edges())  # keep connected
            return StaticGraphProcess(graph)

        spec = TrialSpec(factory=random_static_graph, num_trials=6, seed=0)
        serial = Engine(workers=1).run(spec)
        # A deterministic process: every trial of the batch must see the
        # same graph, so all samples within the run coincide.
        assert len(set(serial.flooding_times)) == 1
        parallel = Engine(workers=3).run(
            TrialSpec(factory=random_static_graph, num_trials=6, seed=0)
        )
        assert len(set(parallel.flooding_times)) == 1

    def test_set_and_vectorized_backends_agree(self, small_edge_meg):
        spec = TrialSpec.from_model(small_edge_meg, num_trials=6, seed=11)
        via_set = Engine(backend="set").run(spec)
        via_vec = Engine(backend="vectorized").run(spec)
        assert via_set.flooding_times == via_vec.flooding_times

    def test_seed_sequence_and_generator_seeds_accepted(self, small_edge_meg):
        seq = np.random.SeedSequence(5)
        spec = TrialSpec.from_model(small_edge_meg, num_trials=4, seed=seq)
        a = Engine().run(spec)
        b = Engine().run(
            TrialSpec.from_model(small_edge_meg, num_trials=4, seed=np.random.SeedSequence(5))
        )
        assert a.flooding_times == b.flooding_times

    def test_batch_result_metadata(self, small_edge_meg):
        spec = TrialSpec.from_model(small_edge_meg, num_trials=5, seed=0)
        result = Engine(workers=1, backend="auto").run(spec)
        assert result.num_trials == 5
        assert result.mean == pytest.approx(
            sum(result.flooding_times) / len(result.flooding_times)
        )
        assert result.elapsed_seconds >= 0.0
        payload = result.as_dict()
        assert payload["flooding_times"] == list(result.flooding_times)

    def test_run_many(self, small_edge_meg):
        specs = [
            TrialSpec.from_model(small_edge_meg, num_trials=2, seed=s) for s in (0, 1)
        ]
        results = Engine().run_many(specs)
        assert len(results) == 2


class TestVectorizedKernel:
    def test_matches_set_loop_exactly_on_edge_meg(self):
        model = EdgeMEG(30, p=0.1, q=0.3)
        for seed in range(5):
            assert flood(model, rng=seed) == flood_vectorized(model, rng=seed)

    def test_matches_set_loop_on_general_edge_meg(self):
        model = four_state_edge_meg(
            16, p_up=0.3, p_down=0.3, p_stabilize=0.2, p_destabilize=0.1
        )
        assert flood(model, rng=2) == flood_vectorized(model, rng=2)

    def test_generic_adjacency_path_on_static_graph(self):
        process = StaticGraphProcess(nx.path_graph(6))
        result = flood_vectorized(process, source=0)
        assert result.flooding_time == 5

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        result = flood_vectorized(StaticGraphProcess(graph))
        assert result.flooding_time == 0

    def test_incomplete_run(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        result = flood_vectorized(StaticGraphProcess(graph), max_steps=10)
        assert result.flooding_time is None
        assert result.final_informed == 2

    def test_invalid_source(self, small_edge_meg):
        with pytest.raises(ValueError):
            flood_vectorized(small_edge_meg, source=small_edge_meg.num_nodes)

    def test_has_fast_adjacency(self, small_edge_meg):
        assert overrides(small_edge_meg, "adjacency_matrix")
        assert not overrides(StaticGraphProcess(nx.path_graph(3)), "adjacency_matrix")

    def test_adjacency_matrix_override_matches_generic(self, small_edge_meg):
        small_edge_meg.reset(4)
        fast = small_edge_meg.adjacency_matrix()
        from repro.meg.base import DynamicGraph

        generic = DynamicGraph.adjacency_matrix(small_edge_meg)
        assert np.array_equal(fast, generic)
        assert np.array_equal(fast, fast.T)
        assert not fast.diagonal().any()


class TestFloodSourcesBatch:
    def test_path_graph_eccentricities(self):
        process = StaticGraphProcess(nx.path_graph(6))
        assert flood_sources_batch(process, [0, 2, 5]) == [5, 3, 5]

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert flood_sources_batch(StaticGraphProcess(graph), [0, 0]) == [0, 0]

    def test_incomplete_sources_are_none(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        times = flood_sources_batch(StaticGraphProcess(graph), [0, 1], max_steps=5)
        assert times == [None, None]

    def test_validation(self, small_edge_meg):
        with pytest.raises(ValueError):
            flood_sources_batch(small_edge_meg, [])
        with pytest.raises(ValueError):
            flood_sources_batch(small_edge_meg, [small_edge_meg.num_nodes])

    def test_matches_single_source_on_shared_realization(self):
        # With one source the batch kernel is just flood() in matrix form.
        model = EdgeMEG(25, p=0.1, q=0.3)
        single = flood(model, source=3, rng=9)
        batched = flood_sources_batch(model, [3], rng=9)
        assert batched == [single.flooding_time]

    def test_no_overflow_with_256_informed_neighbors(self):
        # Regression: a uint8 accumulator would wrap to 0 when a node has
        # exactly 256 informed neighbours and silently never inform it.
        # Layers: source 0 -> 256 middle nodes -> far node 257 whose only
        # neighbours are the 256 middle nodes (all informed simultaneously).
        graph = nx.Graph()
        graph.add_nodes_from(range(258))
        for middle in range(1, 257):
            graph.add_edge(0, middle)
            graph.add_edge(257, middle)
        times = flood_sources_batch(StaticGraphProcess(graph), [0])
        assert times == [2]


class TestSamplingHelpersThroughEngine:
    def test_workers_parameter(self, small_edge_meg):
        serial = flooding_time_samples(small_edge_meg, 6, rng=0, workers=1)
        parallel = flooding_time_samples(small_edge_meg, 6, rng=0, workers=4)
        assert serial == parallel

    def test_backend_parameter(self, small_edge_meg):
        via_set = flooding_time_samples(small_edge_meg, 6, rng=0, backend="set")
        via_vec = flooding_time_samples(small_edge_meg, 6, rng=0, backend="vectorized")
        assert via_set == via_vec

    def test_explicit_engine(self, small_edge_meg):
        engine = Engine(workers=1, backend="set")
        samples = flooding_time_samples(small_edge_meg, 4, rng=1, engine=engine)
        assert samples == flooding_time_samples(small_edge_meg, 4, rng=1)

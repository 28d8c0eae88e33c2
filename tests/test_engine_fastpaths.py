"""Fast-path tests: every model family through every flooding kernel.

The engine's contract is that the kernel choice never changes results: the
set-based loop, the dense vectorized kernel and the sparse CSR kernel must
return bit-identical flooding outcomes on shared seeds for *every* model
family, because the informed-set update is deterministic given the snapshot
and the models consume their random streams identically under all kernels.
These tests pin that property across edge-MEGs, node-MEGs, the grid mobility
models and the geometric mobility models, together with the fast snapshot
interfaces (adjacency overrides, cached k-d trees, vectorized stepping) that
make the fast kernels the default path.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse

from repro.core.flooding import (
    batch_source_flooding_times,
    batched_flooding_time_samples,
    flood,
    flood_sources_set,
)
from repro.engine import (
    Engine,
    TrialSpec,
    estimated_snapshot_density,
    flood_sources_batch,
    flood_sparse,
    flood_vectorized,
    resolve_backend,
)
from repro.graphs.grid import augmented_grid_graph, grid_graph, hop_ball_matrix
from repro.markov.builders import random_walk_on_graph
from repro.meg.base import DynamicGraph, StaticGraphProcess, overrides
from repro.meg.edge_meg import EdgeMEG
from repro.meg.node_meg import NodeMEG
from repro.mobility.random_path import GraphRandomWalkMobility, random_walk_path_model
from repro.mobility.random_walk import RandomWalkMobility
from repro.mobility.random_waypoint import RandomWaypoint


def _node_meg(num_nodes: int = 30) -> NodeMEG:
    chain = random_walk_on_graph(grid_graph(3)).lazy(0.2)
    return NodeMEG(
        num_nodes,
        chain,
        lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1,
    )


def _family_models() -> dict[str, DynamicGraph]:
    return {
        "edge-meg": EdgeMEG(30, p=0.1, q=0.3),
        "node-meg": _node_meg(30),
        "grid": GraphRandomWalkMobility(24, augmented_grid_graph(4, 2), radius_hops=1),
        "mobility": RandomWaypoint(24, side=4.0, radius=1.2, v_min=1.0),
    }


class TestCrossFamilyKernelAgreement:
    """Satellite: set-based, dense and sparse kernels agree on every family."""

    @pytest.mark.parametrize("family", ["edge-meg", "node-meg", "grid", "mobility"])
    def test_single_source_kernels_identical(self, family):
        model = _family_models()[family]
        for seed in range(4):
            via_set = flood(model, rng=seed)
            via_dense = flood_vectorized(model, rng=seed)
            via_sparse = flood_sparse(model, rng=seed)
            assert via_set == via_dense == via_sparse

    @pytest.mark.parametrize("family", ["edge-meg", "node-meg", "grid", "mobility"])
    def test_source_batch_kernels_identical(self, family):
        model = _family_models()[family]
        sources = [0, 5, model.num_nodes - 1]
        for seed in range(3):
            via_set = flood_sources_set(model, sources, rng=seed)
            via_dense = flood_sources_batch(model, sources, rng=seed, backend="dense")
            via_sparse = flood_sources_batch(model, sources, rng=seed, backend="sparse")
            assert via_set == via_dense == via_sparse

    @pytest.mark.parametrize("family", ["edge-meg", "node-meg", "grid", "mobility"])
    def test_engine_backends_identical(self, family):
        samples = {}
        for backend in ("set", "vectorized", "sparse"):
            spec = TrialSpec.from_model(
                _family_models()[family], num_trials=4, seed=17
            )
            samples[backend] = Engine(backend=backend).run(spec).flooding_times
        assert samples["set"] == samples["vectorized"] == samples["sparse"]


class TestFastSnapshotInterfaces:
    @pytest.mark.parametrize("family", ["edge-meg", "node-meg", "grid", "mobility"])
    def test_adjacency_override_matches_generic(self, family):
        model = _family_models()[family]
        assert overrides(model, "adjacency_matrix")
        model.reset(3)
        fast = model.adjacency_matrix()
        generic = DynamicGraph.adjacency_matrix(model)
        assert np.array_equal(fast, generic)
        assert np.array_equal(fast, fast.T)
        assert not fast.diagonal().any()

    @pytest.mark.parametrize("family", ["edge-meg", "node-meg", "grid", "mobility"])
    def test_sparse_adjacency_matches_dense(self, family):
        model = _family_models()[family]
        model.reset(5)
        sparse = model.sparse_adjacency()
        assert scipy.sparse.issparse(sparse)
        assert np.array_equal(
            (sparse.toarray() != 0), model.adjacency_matrix()
        )

    def test_fast_sparse_predicate(self):
        waypoint = RandomWaypoint(5, side=3.0, radius=1.0, v_min=1.0)
        assert overrides(waypoint, "sparse_adjacency")
        assert not overrides(StaticGraphProcess(nx.path_graph(4)), "sparse_adjacency")

    def test_generic_sparse_adjacency_from_edges(self):
        process = StaticGraphProcess(nx.path_graph(6))
        process.reset()
        dense = DynamicGraph.adjacency_matrix(process)
        assert np.array_equal(process.sparse_adjacency().toarray() != 0, dense)

    def test_mobility_tree_cached_within_step(self):
        model = RandomWaypoint(20, side=4.0, radius=1.0, v_min=1.0)
        model.reset(0)
        tree = model.snapshot_tree()
        assert model.snapshot_tree() is tree
        model.step()
        assert model.snapshot_tree() is not tree

    def test_hop_ball_matrix_matches_nodes_within_hops(self):
        graph = augmented_grid_graph(4, 2)
        matrix = hop_ball_matrix(graph, 1, list(graph.nodes()))
        nodes = list(graph.nodes())
        for i, point in enumerate(nodes):
            ball = {point} | set(graph.neighbors(point))
            expected = np.array([other in ball for other in nodes])
            assert np.array_equal(matrix[i], expected)
        assert np.array_equal(matrix, matrix.T)

    def test_hop_ball_matrix_radius_zero_is_identity(self):
        graph = grid_graph(3)
        assert np.array_equal(hop_ball_matrix(graph, 0), np.eye(9, dtype=bool))


class TestVectorizedSteppingBitIdentity:
    """The vectorized whole-population steps replay the historical loops."""

    def test_random_walk_mobility_matches_scalar_loop(self):
        model = RandomWalkMobility(40, grid_side=6, radius=1.0)
        model.reset(11)
        reference = RandomWalkMobility(40, grid_side=6, radius=1.0)
        reference.reset(11)
        moves = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        coords = reference.grid_coordinates()
        rng = reference._rng
        for _ in range(25):
            model.step()
            for node in range(coords.shape[0]):
                candidates = coords[node] + moves
                valid = candidates[
                    (candidates[:, 0] >= 0)
                    & (candidates[:, 0] < 6)
                    & (candidates[:, 1] >= 0)
                    & (candidates[:, 1] < 6)
                ]
                coords[node] = valid[rng.integers(valid.shape[0])]
            assert np.array_equal(model.grid_coordinates(), coords)

    def test_graph_walk_matches_scalar_loop(self):
        graph = augmented_grid_graph(5, 2)
        model = GraphRandomWalkMobility(30, graph, radius_hops=1)
        reference = GraphRandomWalkMobility(30, graph, radius_hops=1)
        model.reset(7)
        reference.reset(7)
        for _ in range(30):
            model.step()
            for agent in range(reference._num_nodes):
                neighbors = reference._neighbors[reference._agent_points[agent]]
                reference._agent_points[agent] = neighbors[
                    reference._rng.integers(len(neighbors))
                ]
            assert np.array_equal(
                np.asarray(model._agent_points), np.asarray(reference._agent_points)
            )

    def test_random_path_matches_scalar_loop(self):
        graph = grid_graph(4)
        model = random_walk_path_model(20, graph, radius_hops=1)
        reference = random_walk_path_model(20, graph, radius_hops=1)
        model.reset(3)
        reference.reset(3)
        for _ in range(30):
            model.step()
            for agent in range(reference._num_nodes):
                reference._step_one_agent(agent)
            assert np.array_equal(
                np.asarray(model._agent_states), np.asarray(reference._agent_states)
            )

    def test_lazy_walk_keeps_scalar_stream(self):
        # The lazy variants interleave hold and move draws; two identically
        # seeded instances must still agree (the loop path is untouched).
        a = RandomWalkMobility(25, grid_side=5, radius=1.0, holding_probability=0.4)
        b = RandomWalkMobility(25, grid_side=5, radius=1.0, holding_probability=0.4)
        a.reset(2)
        b.reset(2)
        a.run(20)
        b.run(20)
        assert np.array_equal(a.grid_coordinates(), b.grid_coordinates())


class TestBackendResolution:
    def test_auto_stays_dense_on_small_models(self):
        model = RandomWaypoint(64, side=8.0, radius=1.0, v_min=1.0)
        assert resolve_backend("auto", model) == "vectorized"

    def test_auto_upgrades_to_sparse_on_large_sparse_models(self):
        model = RandomWaypoint(2048, side=45.0, radius=1.0, v_min=1.0)
        assert resolve_backend("auto", model) == "sparse"

    def test_auto_keeps_set_without_fast_adjacency(self):
        assert resolve_backend("auto", StaticGraphProcess(nx.path_graph(4))) == "set"

    def test_explicit_sparse_passthrough(self):
        model = EdgeMEG(10, p=0.1, q=0.3)
        assert resolve_backend("sparse", model) == "sparse"

    def test_estimated_density_uses_model_quantities(self):
        meg = EdgeMEG(10, p=0.1, q=0.3)
        assert estimated_snapshot_density(meg) == pytest.approx(0.1 / 0.4)
        waypoint = RandomWaypoint(50, side=10.0, radius=1.0, v_min=1.0)
        assert estimated_snapshot_density(waypoint) == pytest.approx(
            waypoint.expected_degree_estimate() / 49
        )
        assert estimated_snapshot_density(StaticGraphProcess(nx.path_graph(4))) is None

    def test_engine_accepts_sparse_backend(self):
        spec = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=3, seed=0)
        assert Engine(backend="sparse").run(spec).backend == "sparse"


class TestBatchedSourceEstimators:
    def test_all_sources_on_path_graph_is_worst_case(self):
        # On a static path the flooding time from source s is its
        # eccentricity; the worst case over all sources is n - 1.
        process = StaticGraphProcess(nx.path_graph(7))
        spec = TrialSpec.from_model(process, num_trials=2, sources="all", seed=0)
        result = Engine().run(spec)
        assert result.flooding_times == (6, 6)

    def test_all_sources_times_match_per_source_floods(self):
        model = _node_meg(16)
        times = batch_source_flooding_times(model, "all", rng=4)
        assert len(times) == 16
        reference = flood_sources_set(model, range(16), rng=4)
        assert times == reference

    def test_sampled_sources_reproducible_and_worker_invariant(self):
        model = EdgeMEG(30, p=0.1, q=0.3)
        serial = batched_flooding_time_samples(model, 6, sources=5, rng=9, workers=1)
        parallel = batched_flooding_time_samples(model, 6, sources=5, rng=9, workers=3)
        assert serial == parallel
        assert len(serial) == 6

    def test_batched_backends_agree(self):
        model = _family_models()["mobility"]
        samples = {
            backend: batched_flooding_time_samples(
                model, 3, sources=4, rng=1, backend=backend
            )
            for backend in ("set", "vectorized", "sparse")
        }
        assert samples["set"] == samples["vectorized"] == samples["sparse"]

    def test_spec_validation(self):
        model = EdgeMEG(10, p=0.1, q=0.3)
        with pytest.raises(ValueError):
            TrialSpec.from_model(model, num_trials=1, sources=(0,), num_sources=2)
        with pytest.raises(ValueError):
            TrialSpec.from_model(model, num_trials=1, sources=())
        with pytest.raises(ValueError):
            TrialSpec.from_model(model, num_trials=1, sources=(-1,))
        with pytest.raises(ValueError):
            TrialSpec.from_model(model, num_trials=1, num_sources=0)
        with pytest.raises(ValueError):
            TrialSpec.from_model(model, num_trials=1, sources="everything")

    def test_numpy_array_sources_accepted(self):
        model = EdgeMEG(20, p=0.1, q=0.3)
        from_array = batch_source_flooding_times(model, np.array([0, 1, 2]), rng=0)
        from_list = batch_source_flooding_times(model, [0, 1, 2], rng=0)
        assert from_array == from_list
        samples = batched_flooding_time_samples(
            model, 2, sources=np.array([0, 1, 2]), rng=0
        )
        assert len(samples) == 2

    def test_oversized_source_sample_rejected(self):
        model = EdgeMEG(20, p=0.1, q=0.3)
        spec = TrialSpec.from_model(model, num_trials=1, num_sources=100, seed=0)
        with pytest.raises(ValueError):
            Engine().run(spec)
        with pytest.raises(ValueError):
            batch_source_flooding_times(model, 100, rng=0)

    def test_single_source_cache_token_unchanged_by_new_fields(self):
        # Pre-batching stored results must keep their addresses: a spec
        # without a source batch must not leak the new keys into its token.
        model = EdgeMEG(10, p=0.1, q=0.3)
        token = TrialSpec.from_model(model, num_trials=2).cache_token()
        assert "sources" not in token and "num_sources" not in token
        batched = TrialSpec.from_model(model, num_trials=2, sources="all")
        assert batched.cache_token()["sources"] == "all"
        sampled = TrialSpec.from_model(model, num_trials=2, num_sources=3)
        assert sampled.cache_token()["num_sources"] == 3

    def test_sweep_runner_supports_source_batches(self):
        from repro.experiments.runner import measure_flooding_sweep

        measurements = measure_flooding_sweep(
            lambda n: EdgeMEG(n, p=0.15, q=0.3),
            [10, 14],
            num_trials=3,
            num_sources=3,
            rng=5,
        )
        assert [m.num_nodes for m in measurements] == [10, 14]
        # Worst-over-3-sources dominates the single-source estimate in law;
        # just check the samples are well-formed positive integers.
        assert all(t >= 1 for m in measurements for t in m.samples)

    def test_flood_sources_set_validation(self):
        model = EdgeMEG(10, p=0.1, q=0.3)
        with pytest.raises(ValueError):
            flood_sources_set(model, [])
        with pytest.raises(ValueError):
            flood_sources_set(model, [10])
        with pytest.raises(ValueError):
            batch_source_flooding_times(model, 0)

    def test_incomplete_batch_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        process = StaticGraphProcess(graph)
        spec = TrialSpec.from_model(process, num_trials=1, sources=(0,), max_steps=5)
        with pytest.raises(RuntimeError):
            Engine().run(spec)

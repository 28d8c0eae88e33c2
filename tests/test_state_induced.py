"""State-induced snapshots against a brute-force pair loop over public state.

Node-MEGs, random-path models and graph random walks derive every snapshot
view from :class:`repro.meg.base.StateInducedGraph` (a class per node and a
symmetric relation over the classes).  These cases rebuild the edge set from
what each model exposes publicly — ``node_states()`` with
``connection_matrix()``, or ``agent_points()`` with hop distances in the
mobility graph — one node pair at a time, and hold every view to it after a
reset and a few steps.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.grid import augmented_grid_graph, grid_graph
from repro.graphs.paths import edge_paths, shortest_path_family
from repro.markov.builders import complete_graph_walk
from repro.meg.base import StateInducedGraph, overrides
from repro.meg.node_meg import NodeMEG
from repro.mobility.random_path import GraphRandomWalkMobility, RandomPathModel


@st.composite
def node_megs(draw) -> NodeMEG:
    num_states = draw(st.integers(min_value=2, max_value=6))
    upper = draw(
        st.lists(
            st.booleans(),
            min_size=num_states * (num_states + 1) // 2,
            max_size=num_states * (num_states + 1) // 2,
        ).filter(any)
    )
    connection = np.zeros((num_states, num_states), dtype=bool)
    connection[np.triu_indices(num_states)] = upper
    connection |= connection.T
    chain = complete_graph_walk(num_states)
    return NodeMEG(draw(st.integers(min_value=1, max_value=20)), chain, connection)


@st.composite
def random_path_models(draw) -> RandomPathModel:
    graph = grid_graph(draw(st.integers(min_value=2, max_value=3)))
    family = draw(st.sampled_from([edge_paths, shortest_path_family]))(graph)
    return RandomPathModel(
        draw(st.integers(min_value=1, max_value=20)),
        family,
        radius_hops=draw(st.sampled_from([0, 1])),
        holding_probability=draw(st.sampled_from([0.0, 0.25])),
        stationary_start=draw(st.booleans()),
    )


@st.composite
def graph_walks(draw) -> GraphRandomWalkMobility:
    graph = augmented_grid_graph(
        draw(st.integers(min_value=2, max_value=4)), draw(st.integers(min_value=1, max_value=2))
    )
    return GraphRandomWalkMobility(
        draw(st.integers(min_value=1, max_value=20)),
        graph,
        radius_hops=draw(st.sampled_from([0, 1, 2])),
        holding_probability=draw(st.sampled_from([0.0, 0.3])),
        stationary_start=draw(st.booleans()),
    )


MODELS = st.one_of(node_megs(), random_path_models(), graph_walks())


def _related(model: StateInducedGraph):
    """``related(i, j)``: whether nodes ``i != j`` are adjacent, from public state."""
    if isinstance(model, NodeMEG):
        states = model.node_states()
        connection = model.connection_matrix()
        return lambda i, j: bool(connection[states[i], states[j]])
    graph = model.family.graph if isinstance(model, RandomPathModel) else model.graph
    hops = dict(nx.all_pairs_shortest_path_length(graph))
    points = model.agent_points()
    return lambda i, j: hops[points[i]][points[j]] <= model.radius_hops


def _oracle_pairs(model: StateInducedGraph) -> list[tuple[int, int]]:
    related = _related(model)
    n = model.num_nodes
    return [(i, j) for i in range(n) for j in range(i + 1, n) if related(i, j)]


def _oracle_neighbors(pairs, nodes) -> set[int]:
    reached = set()
    for i, j in pairs:
        if i in nodes:
            reached.add(j)
        if j in nodes:
            reached.add(i)
    return reached


class TestSnapshotViewsMatchPairLoop:
    @given(
        model=MODELS,
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=0, max_value=5),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_view(self, model, seed, steps, data):
        model.reset(seed)
        model.run(steps)
        n = model.num_nodes
        pairs = _oracle_pairs(model)

        dense = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            dense[i, j] = dense[j, i] = True
        assert np.array_equal(model.adjacency_matrix(), dense)
        assert model.edge_pairs().tolist() == [list(pair) for pair in pairs]
        assert list(model.current_edges()) == pairs
        assert model.edge_count() == len(pairs)
        assert np.array_equal(model.sparse_adjacency().toarray() != 0, dense)

        nodes = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        assert model.neighbors_of_set(nodes) == _oracle_neighbors(pairs, nodes)

        # Reach masks may include informed nodes themselves; flooding unions
        # them with the informed set, which is the part that must agree.
        width = data.draw(st.integers(min_value=1, max_value=4))
        informed = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=n * width, max_size=n * width)
            ),
            dtype=bool,
        ).reshape(n, width)
        batch = model.reach_mask_batch(informed)
        assert batch.shape == (n, width)
        for column in range(width):
            mask = informed[:, column]
            expected = np.zeros(n, dtype=bool)
            expected[list(_oracle_neighbors(pairs, set(np.flatnonzero(mask).tolist())))] = True
            single = model.reach_mask(mask)
            assert np.array_equal(single | mask, expected | mask)
            assert np.array_equal(batch[:, column], single)


def _example_models() -> list[StateInducedGraph]:
    return [
        NodeMEG(6, complete_graph_walk(3), np.eye(3, dtype=bool)),
        RandomPathModel(6, edge_paths(grid_graph(3)), radius_hops=0),
        RandomPathModel(6, edge_paths(grid_graph(3)), radius_hops=1),
        GraphRandomWalkMobility(6, augmented_grid_graph(3, 1)),
    ]


class TestStateInducedBase:
    @pytest.mark.parametrize("model", _example_models(), ids=lambda model: type(model).__name__)
    def test_views_raise_before_reset(self, model):
        for view in (
            model.adjacency_matrix,
            model.edge_pairs,
            model.edge_count,
            lambda: list(model.current_edges()),
            lambda: model.neighbors_of_set({0}),
            lambda: model.reach_mask(np.ones(6, dtype=bool)),
            lambda: model.reach_mask_batch(np.ones((6, 2), dtype=bool)),
        ):
            with pytest.raises(RuntimeError, match="reset"):
                view()

    @pytest.mark.parametrize("model", _example_models(), ids=lambda model: type(model).__name__)
    def test_kernel_hooks_read_as_overridden(self, model):
        # The engine routes these families to the state-level kernels by
        # asking which hooks they replace.
        for hook in ("adjacency_matrix", "edge_pairs", "reach_mask", "reach_mask_batch"):
            assert overrides(model, hook)
        assert not overrides(model, "sparse_adjacency")

"""Tests for repro.meg.base (DynamicGraph interface and StaticGraphProcess)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.meg.base import StaticGraphProcess, all_pairs


@pytest.fixture
def path_process():
    return StaticGraphProcess(nx.path_graph(5))


class TestStaticGraphProcess:
    def test_requires_contiguous_labels(self):
        graph = nx.Graph()
        graph.add_edge(3, 5)
        with pytest.raises(ValueError, match="0..n-1"):
            StaticGraphProcess(graph)

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            StaticGraphProcess(nx.Graph())

    def test_edges_are_static(self, path_process):
        path_process.reset()
        before = set(path_process.current_edges())
        path_process.step()
        after = set(path_process.current_edges())
        assert before == after == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_time_advances(self, path_process):
        path_process.reset()
        assert path_process.time == 0
        path_process.run(5)
        assert path_process.time == 5

    def test_run_negative_raises(self, path_process):
        path_process.reset()
        with pytest.raises(ValueError):
            path_process.run(-1)

    def test_neighbors_of_set(self, path_process):
        path_process.reset()
        assert path_process.neighbors_of_set({0}) == {1}
        assert path_process.neighbors_of_set({2}) == {1, 3}
        assert path_process.neighbors_of_set({0, 4}) == {1, 3}

    def test_neighbors_of_empty_set(self, path_process):
        path_process.reset()
        assert path_process.neighbors_of_set(set()) == set()

    def test_snapshot_roundtrip(self, path_process):
        path_process.reset()
        snapshot = path_process.snapshot()
        assert isinstance(snapshot, nx.Graph)
        assert snapshot.number_of_nodes() == 5
        assert snapshot.number_of_edges() == 4

    def test_has_edge(self, path_process):
        path_process.reset()
        assert path_process.has_edge(0, 1)
        assert path_process.has_edge(1, 0)
        assert not path_process.has_edge(0, 2)
        assert not path_process.has_edge(3, 3)

    def test_has_edge_out_of_range(self, path_process):
        path_process.reset()
        with pytest.raises(ValueError):
            path_process.has_edge(0, 99)

    def test_degree(self, path_process):
        path_process.reset()
        assert path_process.degree(0) == 1
        assert path_process.degree(2) == 2

    def test_edge_count(self, path_process):
        path_process.reset()
        assert path_process.edge_count() == 4


class TestHelpers:
    def test_all_pairs_count(self):
        assert len(all_pairs(5)) == 10

    def test_all_pairs_ordering(self):
        pairs = all_pairs(4)
        assert all(i < j for i, j in pairs)

    def test_all_pairs_zero_nodes(self):
        assert all_pairs(0) == []

    def test_all_pairs_negative_raises(self):
        with pytest.raises(ValueError):
            all_pairs(-1)

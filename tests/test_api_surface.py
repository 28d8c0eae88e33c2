"""API-surface tests: public exports, interface compliance, reusability.

These guard the packaging-level promises a downstream user relies on:
everything listed in ``__all__`` really is importable, every dynamic-graph
model honours the common interface (including ``rng=None`` and re-use across
runs), the package version is consistent with the project metadata, and
the neighbour search stays behind one module.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import repro


PACKAGES = [
    "repro",
    "repro.util",
    "repro.markov",
    "repro.graphs",
    "repro.meg",
    "repro.mobility",
    "repro.core",
    "repro.baselines",
    "repro.experiments",
    "repro.fleet",
    "repro.telemetry",
]


class TestPublicExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_are_importable(self, package_name):
        module = importlib.import_module(package_name)
        assert hasattr(module, "__all__"), f"{package_name} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package_name}.{name} listed but missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_and_unique(self, package_name):
        module = importlib.import_module(package_name)
        names = list(module.__all__)
        assert len(names) == len(set(names))

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_top_level_docstring_mentions_paper(self):
        assert "Information Spreading in Dynamic Graphs" in repro.__doc__

    def test_cli_entry_point_importable(self):
        from repro.cli import main

        assert callable(main)


def _model_zoo():
    """One small instance of every dynamic-graph model in the library."""
    from repro.graphs.grid import grid_graph
    from repro.graphs.paths import shortest_path_family
    from repro.markov.builders import complete_graph_walk
    from repro.meg.adversarial import RotatingSpanningTreeGraph
    from repro.meg.edge_meg import EdgeMEG, four_state_edge_meg
    from repro.meg.erdos_renyi import ErdosRenyiSequence
    from repro.meg.node_meg import NodeMEG
    from repro.mobility.manhattan import ManhattanWaypoint
    from repro.mobility.random_direction import RandomDirection
    from repro.mobility.random_path import GraphRandomWalkMobility, RandomPathModel
    from repro.mobility.random_walk import RandomWalkMobility
    from repro.mobility.random_waypoint import RandomWaypoint

    grid = grid_graph(3)
    return [
        EdgeMEG(12, p=0.2, q=0.3),
        four_state_edge_meg(10, p_up=0.3, p_down=0.3, p_stabilize=0.2, p_destabilize=0.1),
        ErdosRenyiSequence(12, p=0.3),
        NodeMEG(10, complete_graph_walk(5), np.eye(5, dtype=bool)),
        RotatingSpanningTreeGraph(8),
        RandomWalkMobility(10, grid_side=4, radius=1.0),
        RandomWaypoint(10, side=4.0, radius=1.0, v_min=1.0, warmup_steps=2),
        RandomDirection(10, side=4.0, radius=1.0, speed=1.0, warmup_steps=2),
        ManhattanWaypoint(10, side=4.0, radius=1.0, speed=1.0, warmup_steps=2),
        RandomPathModel(10, shortest_path_family(grid), holding_probability=0.2),
        GraphRandomWalkMobility(10, grid, holding_probability=0.5),
    ]


class TestDynamicGraphInterfaceCompliance:
    @pytest.mark.parametrize("model", _model_zoo(), ids=lambda m: type(m).__name__)
    def test_reset_step_edges_cycle(self, model):
        model.reset(0)
        assert model.time == 0
        edges_before = list(model.current_edges())
        for i, j in edges_before:
            assert 0 <= i < model.num_nodes
            assert 0 <= j < model.num_nodes
            assert i != j
        model.step()
        assert model.time == 1
        # The snapshot is queryable after stepping, and neighbour queries agree
        # with the edge list.
        informed = {0}
        via_edges = set()
        for i, j in model.current_edges():
            if i in informed:
                via_edges.add(j)
            if j in informed:
                via_edges.add(i)
        assert model.neighbors_of_set(informed) >= via_edges

    @pytest.mark.parametrize("model", _model_zoo(), ids=lambda m: type(m).__name__)
    def test_reset_accepts_none_rng(self, model):
        model.reset(None)
        model.step()
        assert model.time == 1

    @pytest.mark.parametrize("model", _model_zoo(), ids=lambda m: type(m).__name__)
    def test_model_reusable_across_flooding_runs(self, model):
        from repro.core.flooding import flood

        first = flood(model, rng=1, max_steps=2000)
        second = flood(model, rng=2, max_steps=2000)
        assert first.informed_history[0] == 1
        assert second.informed_history[0] == 1

    @pytest.mark.parametrize("model", _model_zoo(), ids=lambda m: type(m).__name__)
    def test_snapshot_graph_shape(self, model):
        model.reset(3)
        snapshot = model.snapshot()
        assert snapshot.number_of_nodes() == model.num_nodes
        assert snapshot.number_of_edges() == model.edge_count()


def _imported_modules(node: ast.AST) -> set[str]:
    """Dotted module names an ``import``/``from`` statement under ``node`` binds."""
    names = set()
    for statement in ast.walk(node):
        if isinstance(statement, ast.Import):
            names.update(alias.name for alias in statement.names)
        elif isinstance(statement, ast.ImportFrom) and statement.level == 0:
            names.add(statement.module)
            names.update(f"{statement.module}.{alias.name}" for alias in statement.names)
    return names


class TestImportBoundaries:
    ROOT = Path(repro.__file__).parent

    def _sources(self):
        for path in sorted(self.ROOT.rglob("*.py")):
            yield path.relative_to(self.ROOT.parent).as_posix(), ast.parse(
                path.read_text(encoding="utf-8")
            )

    def test_scipy_spatial_lives_in_connection_only(self):
        importers = {
            name
            for name, tree in self._sources()
            if any(
                module == "scipy.spatial" or module.startswith("scipy.spatial.")
                for module in _imported_modules(tree)
            )
        }
        assert importers == {"repro/mobility/connection.py"}

    def test_scipy_imports_are_unguarded(self):
        # SciPy is a hard dependency: no module carries an ImportError
        # fallback for it.
        guarded = []
        for name, tree in self._sources():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Try):
                    continue
                body = ast.Module(body=node.body, type_ignores=[])
                if any(module.split(".")[0] == "scipy" for module in _imported_modules(body)):
                    guarded.append(name)
        assert guarded == []

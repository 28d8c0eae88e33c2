"""API-surface tests: public exports, interface compliance, reusability.

These guard the packaging-level promises a downstream user relies on:
everything listed in ``__all__`` really is importable, every dynamic-graph
model honours the common interface (including ``rng=None`` and re-use across
runs), the package version is consistent with the project metadata, the
neighbour search stays behind one module, and SciPy and networkx load only
on the code paths that use them.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
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
    "repro.engine",
    "repro.serve",
    "repro.stats",
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
        assert names == sorted(names)

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


def _import_time_imports(body):
    """Import statements that run when a module loads: everything outside
    function bodies and ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _import_time_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody"):
                yield from _import_time_imports(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _import_time_imports(handler.body)


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

    #: The modules that may import networkx or SciPy when they load: the
    #: graph substrate and the models and baselines built on networkx graphs
    #: throughout.  Everything else imports them inside the function that
    #: needs them, so a command that never reaches these modules loads
    #: neither library (see TestColdImports).
    HEAVY_IMPORTERS = {
        "repro/baselines/meeting_time.py",
        "repro/graphs/generators.py",
        "repro/graphs/grid.py",
        "repro/graphs/paths.py",
        "repro/graphs/properties.py",
        "repro/markov/builders.py",
        "repro/meg/adversarial.py",
        "repro/meg/snapshots.py",
        "repro/mobility/random_path.py",
    }

    def test_networkx_and_scipy_load_only_in_allowlisted_modules(self):
        importers = set()
        for name, tree in self._sources():
            for statement in _import_time_imports(tree.body):
                roots = {module.split(".")[0] for module in _imported_modules(statement)}
                if roots & {"networkx", "scipy"}:
                    importers.add(name)
        assert importers == self.HEAVY_IMPORTERS


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    src = str(Path(repro.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def _cli_modules(argv: list[str]) -> set[str]:
    """``sys.modules`` after ``repro <argv>`` ran (its output discarded)."""
    return _modules_after(
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        assert main({argv!r}) == 0\n"
        "    except SystemExit as exit_:\n"
        "        assert exit_.code == 0\n"
    )


class TestColdImports:
    """A command loads NumPy, SciPy and networkx only when it reaches them."""

    def test_import_cli_loads_no_numeric_stack(self):
        modules = _modules_after("import repro.cli")
        assert not modules & {"numpy", "scipy", "networkx"}

    def test_version_loads_no_numpy(self):
        assert "numpy" not in _cli_modules(["--version"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "edge-meg", "--help"],
            ["flood", "waypoint", "--help"],
            ["fleet", "run", "sweep", "grid-walk", "--help"],
        ],
        ids=" ".join,
    )
    def test_help_pages_load_no_numpy(self, argv):
        assert "numpy" not in _cli_modules(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "edge-meg", "--backend", "bogus"],
            ["sweep", "waypoint", "--shard", "3/3"],
        ],
        ids=" ".join,
    )
    def test_usage_errors_load_no_numpy(self, argv):
        modules = _modules_after(
            "from repro.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit as exit_:\n"
            "        assert exit_.code == 2\n"
            "    else:\n"
            "        raise AssertionError('no usage error')\n"
        )
        assert "numpy" not in modules

    def test_small_edge_meg_sweep_loads_no_scipy_or_networkx(self):
        modules = _cli_modules(["sweep", "edge-meg", "--nodes", "16,32", "--trials", "2"])
        assert "numpy" in modules
        assert not modules & {"scipy", "networkx"}

    def test_waypoint_sweep_loads_scipy_spatial_only(self):
        modules = _cli_modules(
            ["sweep", "waypoint", "--nodes", "8,12", "--trials", "2", "--side", "3"]
        )
        assert "scipy.spatial" in modules
        assert "networkx" not in modules

    def test_serial_sweep_loads_no_process_pool(self):
        modules = _cli_modules(["sweep", "waypoint", "--nodes", "16", "--trials", "2"])
        assert not modules & {"multiprocessing", "concurrent.futures.process"}

    def test_package_roots_resolve_lazily(self):
        modules = _modules_after(
            "import repro, repro.meg\n"
            "assert 'numpy' not in sys.modules\n"
            "assert repro.meg.base.DynamicGraph is repro.DynamicGraph\n"
        )
        assert "repro.meg.base" in modules
        assert "networkx" not in modules

"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestExperimentsCommands:
    def test_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        output = capsys.readouterr().out
        assert "E1:" in output
        assert "E10:" in output
        assert "Corollary" in output

    def test_run_single(self, capsys):
        assert main(["experiments", "run", "E7", "--scale", "small", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "E7:" in output
        assert "prior_bound_[10]" in output

    def test_run_single_markdown(self, capsys):
        assert main(["experiments", "run", "E1", "--markdown"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("### E1:")
        assert "| n |" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "run", "E99"])


class TestFloodCommands:
    def test_edge_meg(self, capsys):
        code = main(
            ["flood", "edge-meg", "--nodes", "60", "--p", "0.03", "--q", "0.5", "--trials", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "edge-MEG(n=60" in output
        assert "flooding time:" in output
        assert "paper bound" in output

    def test_waypoint(self, capsys):
        code = main(
            ["flood", "waypoint", "--nodes", "40", "--side", "6", "--radius", "1",
             "--speed", "1", "--trials", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "random waypoint" in output

    def test_grid_walk(self, capsys):
        code = main(
            ["flood", "grid-walk", "--nodes", "30", "--grid-side", "4", "--augment-k", "2",
             "--trials", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "grid random walk" in output

    def test_missing_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["flood"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["flood", "edge-meg", "--backend", "gpu"])


class TestEngineFlags:
    ARGS = ["flood", "edge-meg", "--nodes", "40", "--p", "0.05", "--q", "0.5",
            "--trials", "3", "--seed", "1"]

    def test_workers_and_backend_do_not_change_samples(self, tmp_path, capsys):
        runs = {}
        for name, extra in (
            ("serial-set", ["--workers", "1", "--backend", "set"]),
            ("parallel-vec", ["--workers", "2", "--backend", "vectorized"]),
        ):
            json_path = tmp_path / f"{name}.json"
            assert main(self.ARGS + extra + ["--json", str(json_path)]) == 0
            runs[name] = json.loads(json_path.read_text())["samples"]
        assert runs["serial-set"] == runs["parallel-vec"]

    def test_results_dir_caches_identical_reruns(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.ARGS + ["--results-dir", str(store_dir), "--json", str(first)]) == 0
        assert main(self.ARGS + ["--results-dir", str(store_dir), "--json", str(second)]) == 0
        assert json.loads(first.read_text()) == json.loads(second.read_text())
        # One entry in the store: the second run was a cache hit.
        store_file = store_dir / "results.jsonl"
        assert len(store_file.read_text().strip().splitlines()) == 1

    def test_json_output_shape(self, tmp_path, capsys):
        json_path = tmp_path / "run.json"
        assert main(self.ARGS + ["--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["engine"] == {"workers": 1, "backend": "auto"}
        assert len(payload["samples"]) == 3
        assert payload["summary"]["count"] == 3
        assert payload["paper_bound"] > 0

    def test_experiments_run_json(self, tmp_path, capsys):
        json_path = tmp_path / "e7.json"
        assert main(["experiments", "run", "E7", "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["experiment_id"] == "E7"
        assert payload["columns"]
        assert len(payload["rows"]) >= 1


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_matches_semver_shape(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_version_agrees_with_pyproject(self):
        """Guards the source-checkout fallback in repro/__init__.py against

        drifting from pyproject.toml (which happened once before the
        fallback and the metadata were unified): whichever path supplied
        ``__version__`` — installed metadata or the literal — it must equal
        the version pyproject declares.
        """
        import os
        import re

        import repro

        pyproject = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "pyproject.toml",
        )
        with open(pyproject, encoding="utf-8") as handle:
            match = re.search(r'^version\s*=\s*"([^"]+)"', handle.read(), re.M)
        assert match, "pyproject.toml lost its version field"
        assert repro.__version__ == match.group(1)


class TestMergeResultsErrors:
    def test_missing_source_exits_cleanly(self, tmp_path, capsys):
        """A typo'd shard path is a clean exit-1 message, not a traceback."""
        code = main(
            ["merge-results", str(tmp_path / "merged.jsonl"), str(tmp_path / "nope")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "merge failed:" in err
        assert "no result store" in err

    def test_conflicting_payloads_exit_cleanly(self, tmp_path, capsys):
        from repro.engine import ResultStore

        a = ResultStore(str(tmp_path / "a"))
        b = ResultStore(str(tmp_path / "b"))
        a.put("k", {"value": 1})
        b.put("k", {"value": 2})
        code = main(
            ["merge-results", str(tmp_path / "merged.jsonl"),
             str(tmp_path / "a"), str(tmp_path / "b")]
        )
        assert code == 1
        assert "merge failed:" in capsys.readouterr().err


class TestRunAll:
    def test_run_all_to_file(self, tmp_path, capsys):
        output_file = tmp_path / "report.md"
        code = main(
            ["experiments", "run-all", "--markdown", "--output", str(output_file)]
        )
        assert code == 0
        content = output_file.read_text()
        # Every experiment section is present.
        for experiment_id in (f"E{i}" for i in range(1, 11)):
            assert f"### {experiment_id}:" in content
        assert "wrote" in capsys.readouterr().out


class TestUnusableOutputPaths:
    """Bad ``--json``/``--output``/``--results-dir`` paths fail before any trial runs.

    Each case exits 2 with a one-line ``error:`` on stderr, prints nothing
    on stdout (no trial ran) and creates no file.
    """

    COMMANDS = {
        "sweep": ["sweep", "edge-meg", "--nodes", "8", "--trials", "2"],
        "flood": ["flood", "edge-meg", "--nodes", "8", "--trials", "2"],
        "experiment": ["experiment", "E7"],
        "experiments-run": ["experiments", "run", "E7"],
        "experiments-run-all": ["experiments", "run-all"],
    }

    @staticmethod
    def _assert_refused(capsys, code, flag):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot ")
        assert flag in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_json_in_missing_directory(self, command, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code = main([*self.COMMANDS[command], "--json", str(target)])
        self._assert_refused(capsys, code, "--json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_json_path_is_a_directory(self, command, tmp_path, capsys):
        code = main([*self.COMMANDS[command], "--json", str(tmp_path)])
        self._assert_refused(capsys, code, "--json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "flood", "experiment"])
    def test_results_dir_that_cannot_be_created(self, command, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        json_path = tmp_path / "out.json"
        code = main([*self.COMMANDS[command], "--results-dir", str(blocker / "store"),
                     "--json", str(json_path)])
        self._assert_refused(capsys, code, "--results-dir")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]

    FLEET_SWEEP = ["fleet", "run", "sweep", "edge-meg", "--nodes", "8", "--trials", "2",
                   "--shards", "1", "--local-workers", "1", "--max-wait", "120"]

    def test_fleet_run_json_in_missing_directory(self, tmp_path, capsys):
        code = main([*self.FLEET_SWEEP, "--spool", str(tmp_path / "spool"),
                     "--results-dir", str(tmp_path / "merged"),
                     "--json", str(tmp_path / "missing" / "x.json")])
        self._assert_refused(capsys, code, "--json")
        assert list(tmp_path.iterdir()) == []

    def test_fleet_run_profile_without_telemetry(self, tmp_path, capsys, monkeypatch):
        """Refused before the pilot round runs, so no pilot table is printed."""
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        code = main([*self.FLEET_SWEEP, "--target-ci", "1", "--profile",
                     "--spool", str(tmp_path / "spool"),
                     "--results-dir", str(tmp_path / "merged")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --profile needs a telemetry directory")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "spool").exists()

    def test_run_all_output_in_missing_directory(self, tmp_path, capsys):
        code = main([*self.COMMANDS["experiments-run-all"],
                     "--output", str(tmp_path / "missing" / "report.md")])
        self._assert_refused(capsys, code, "--output")
        assert list(tmp_path.iterdir()) == []

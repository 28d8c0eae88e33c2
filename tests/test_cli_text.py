"""Pinned CLI text and dispatch: help pages, ``--version``, usage errors, handlers.

The goldens in ``tests/data/cli_text_golden.json`` hold the exact stdout,
stderr and exit code of each case at ``COLUMNS=80``.  Regenerate them after
an intended text change with::

    PYTHONPATH=src python tests/test_cli_text.py

The goldens hold for Python 3.10-3.12 (checked on 3.10.13, 3.11.7 and
3.12.1); Python 3.13 wraps argparse usage lines differently, so the text
comparison is skipped there.  Every leaf command also parses a minimal valid argv to the handler it
registers with ``set_defaults(handler=...)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "cli_text_golden.json")

#: every subcommand path whose ``--help`` page is pinned
HELP_PATHS = [
    [],
    ["experiments"],
    ["experiments", "list"],
    ["experiments", "run"],
    ["experiments", "run-all"],
    ["experiment"],
    ["flood"],
    ["flood", "edge-meg"],
    ["flood", "waypoint"],
    ["flood", "grid-walk"],
    ["sweep"],
    ["sweep", "edge-meg"],
    ["sweep", "waypoint"],
    ["sweep", "grid-walk"],
    ["merge-results"],
    ["worker"],
    ["fleet"],
    ["fleet", "run"],
    ["fleet", "run", "sweep"],
    ["fleet", "run", "sweep", "edge-meg"],
    ["fleet", "run", "sweep", "waypoint"],
    ["fleet", "run", "sweep", "grid-walk"],
    ["fleet", "run", "experiment"],
    ["fleet", "status"],
    ["fleet", "top"],
    ["serve"],
    ["telemetry"],
    ["telemetry", "report"],
    ["telemetry", "trace"],
    ["telemetry", "export"],
]

#: argv of every other pinned case: the version and the usage errors
OTHER_CASES = {
    "version": ["--version"],
    "error-no-command": [],
    "error-unknown-command": ["bogus"],
    "error-missing-family": ["sweep"],
    "error-missing-model": ["flood"],
    "error-missing-fleet-family": ["fleet", "run", "sweep"],
    "error-invalid-backend": ["sweep", "edge-meg", "--backend", "bogus"],
    "error-bad-shard": ["sweep", "edge-meg", "--shard", "3/3"],
    "error-malformed-shard": ["sweep", "waypoint", "--shard", "x"],
    "error-unrecognized-argument": ["flood", "edge-meg", "--shard", "0/2"],
    "error-unknown-experiment": ["experiment", "E99"],
}


def cases() -> dict:
    pinned = {" ".join(["help", *path]): [*path, "--help"] for path in HELP_PATHS}
    pinned.update(OTHER_CASES)
    return pinned


def run_cli(argv: list) -> dict:
    """Exit code, stdout and stderr of ``repro <argv>`` at 80 columns."""
    from repro.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def load_goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps usage differently")
@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_text_matches_golden(case):
    golden = load_goldens()[case]
    assert golden["argv"] == cases()[case]
    assert run_cli(golden["argv"]) == golden


def test_every_case_has_a_golden():
    assert sorted(load_goldens()) == sorted(cases())


if __name__ == "__main__":
    goldens = {case: run_cli(argv) for case, argv in sorted(cases().items())}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")


#: a minimal valid argv for every leaf command, and the handler it must reach
LEAF_HANDLERS = {
    ("experiments", "list"): ([], "_run_experiments_list"),
    ("experiments", "run"): (["E1"], "_run_experiments_run"),
    ("experiments", "run-all"): ([], "_run_experiments_run_all"),
    ("experiment",): (["E1"], "_run_experiment_pipeline"),
    ("flood", "edge-meg"): ([], "_run_flood"),
    ("flood", "waypoint"): ([], "_run_flood"),
    ("flood", "grid-walk"): ([], "_run_flood"),
    ("sweep", "edge-meg"): ([], "_run_sweep"),
    ("sweep", "waypoint"): ([], "_run_sweep"),
    ("sweep", "grid-walk"): ([], "_run_sweep"),
    ("merge-results",): (["out.jsonl", "store"], "_run_merge"),
    ("worker",): (["--spool", "spool"], "_run_worker"),
    ("fleet", "run", "sweep", "edge-meg"): (["--spool", "s", "--shards", "2"], "_run_fleet_run"),
    ("fleet", "run", "sweep", "waypoint"): (["--spool", "s", "--shards", "2"], "_run_fleet_run"),
    ("fleet", "run", "sweep", "grid-walk"): (["--spool", "s", "--shards", "2"], "_run_fleet_run"),
    ("fleet", "run", "experiment"): (["E1", "--spool", "s", "--shards", "2"], "_run_fleet_run"),
    ("fleet", "status"): (["spool"], "_run_fleet_status"),
    ("fleet", "top"): (["spool"], "_run_fleet_top"),
    ("serve",): (["--spool", "s", "--results-dir", "r"], "_run_serve"),
    ("telemetry", "report"): (["dir"], "_run_telemetry_report"),
    ("telemetry", "trace"): ([], "_run_telemetry_trace"),
    ("telemetry", "export"): ([], "_run_telemetry_export"),
}


def _leaf_paths(parser, prefix=()):
    """Every subcommand path of ``parser`` that has no further subcommands."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_paths(child, (*prefix, name))
            return
    yield prefix


def test_every_leaf_command_has_a_handler_case():
    from repro.cli import COMMANDS, _build_parser

    leaves = {
        path for name, _, _ in COMMANDS for path in _leaf_paths(_build_parser())
        if path[0] == name
    }
    assert leaves == set(LEAF_HANDLERS)


@pytest.mark.parametrize("path", sorted(LEAF_HANDLERS), ids=" ".join)
def test_leaf_parses_to_its_handler(path):
    import repro.cli as cli

    extra, handler = LEAF_HANDLERS[path]
    args = cli._build_parser().parse_args([*path, *extra])
    assert args.handler is getattr(cli, handler)


#: argv -> the most ``ArgumentParser`` objects parsing it may build: the
#: parsers on the path the argv selects, none for the commands it skips
PARSER_BUDGETS = {
    ("sweep", "edge-meg", "--nodes", "64,128", "--trials", "4", "--seed", "3"): 3,
    ("fleet", "run", "sweep", "edge-meg", "--spool", "s", "--shards", "2"): 5,
    ("--help",): 1,
    ("bogus",): 1,
}


@pytest.mark.parametrize("argv", sorted(PARSER_BUDGETS), ids=" ".join)
def test_parsing_builds_only_the_selected_path(argv, monkeypatch):
    import argparse

    from repro.cli import _build_parser

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            _build_parser().parse_args(list(argv))
        except SystemExit:
            pass
    assert len(built) <= PARSER_BUDGETS[argv], built

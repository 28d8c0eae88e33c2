"""Command-line interface: run experiments and flooding simulations from a shell.

Usage (after ``pip install -e .``)::

    repro experiments list
    repro experiments run E3 --scale small --seed 1
    repro experiments run-all --markdown --output EXPERIMENTS.md --json report.json
    repro experiment E7 --scale small --workers 4 --results-dir .repro-results
    repro experiment E7 --shard 2/4 --results-dir shard2
    repro experiment E7 --results-dir merged --merge shard0 shard1 shard2 shard3
    repro flood edge-meg --nodes 200 --p 0.0025 --q 0.5 --trials 10
    repro flood waypoint --nodes 100 --side 10 --radius 1 --speed 1
    repro flood grid-walk --nodes 64 --grid-side 8 --radius 1
    repro flood edge-meg --nodes 256 --workers 4 --backend vectorized \
        --results-dir .repro-results --json run.json
    repro sweep edge-meg --nodes 64,128,256 --trials 30 --seed 7 \
        --shard 0/3 --results-dir shard0
    repro sweep edge-meg --nodes 64,128,256 --trials 400 --seed 7 \
        --target-ci 5.0 --results-dir .repro-results
    repro merge-results merged.jsonl shard0 shard1 shard2
    repro fleet run sweep edge-meg --nodes 64,128 --trials 30 --seed 7 \
        --shards 6 --local-workers 2 --spool spool --results-dir merged
    repro fleet run experiment E7 --scale small --seed 3 --shards 2 \
        --local-workers 2 --spool exp-spool --results-dir merged-exp
    repro fleet run sweep edge-meg --nodes 64,128 --trials 30 --seed 7 \
        --shards 6 --spool spool --results-dir merged --resume
    repro fleet run sweep edge-meg --nodes 64,128 --trials 400 --seed 7 \
        --target-ci 5.0 --shards 4 --local-workers 2 --spool spool \
        --results-dir merged
    repro worker --spool /mnt/shared/spool
    repro fleet status spool
    repro serve --spool spool --results-dir store --port 8080

The ``flood`` subcommand reports the measured flooding-time statistics next
to the paper's bound for the chosen model, mirroring what the examples do in
code.  All trial execution goes through :class:`repro.engine.Engine`:
``--workers`` fans trials out over a process pool (samples are bit-identical
at any worker count), ``--backend`` selects the flooding kernel, and
``--results-dir`` attaches a persistent result store so re-runs with the
same model, parameters and seed are served from cache.  ``--json`` writes
the run's machine-readable results to a file for cross-run tracking.  Both
output paths are checked before any trial runs: an unusable one exits 2
with a one-line error.

The ``sweep`` subcommand runs a node-count sweep of a model family through
the sweep runner, and ``--shard i/K`` restricts the run to every ``K``-th
trial (offset ``i``) of each sweep point *with the exact seeds the unsharded
sweep would use* — so ``K`` shard jobs on ``K`` machines, merged afterwards
with ``merge-results``, store results bit-identical to one unsharded run.
``--target-ci W`` makes the sweep adaptive (:mod:`repro.stats.sequential`):
each point stops as soon as its confidence interval is within ``±W``, with
``--trials`` as the budget cap; the realized trial count depends only on the
seed and the rule, never on worker count.  ``repro fleet run sweep
--target-ci`` instead runs a local pilot round per point and shards a
variance-sized fixed budget across the fleet.

The ``experiment`` subcommand runs one registered experiment (E1-E10)
through the engine pipeline: the experiment compiles into a batch of tagged
``TrialSpec`` jobs, ``--shard i/K`` executes only jobs ``i, i+K, ...`` (each
persisted as a full batch record), and ``--merge`` unions shard stores and
assembles the report purely from store records — the fan-out/fan-in path the
CI experiment matrix exercises per push.

The ``fleet`` and ``worker`` subcommands automate the fan-out/fan-in
entirely (:mod:`repro.fleet`): ``repro fleet run`` compiles a sweep or
experiment into ``K`` shard jobs in a crash-safe file spool, drives local
and/or external ``repro worker`` processes to drain it (leases, heartbeats,
expiry requeue, bounded retries), and fans in to a merged store and report
byte-identical to a one-shot run.  ``--resume`` reuses a partially drained
spool instead of demanding a fresh one.  ``repro fleet status`` inspects a
spool.

``repro serve`` exposes the same workloads over HTTP (:mod:`repro.serve`):
POST a JSON work request and a *warm* query — one whose content-addressed
store keys are already present in ``--results-dir`` — is answered straight
from the store with zero simulation, while a *cold* one is compiled into
fleet jobs on ``--spool`` for external workers to drain, pollable by
ticket.  Every entry point above compiles requests through one seam,
:mod:`repro.api`, so a request means the same store keys whichever door it
comes through.

How a call is parsed and dispatched: :data:`COMMANDS` lists the top-level
subcommands as ``(name, help, builder)`` rows, and every inner node of the
tree below is a :func:`_level` of such rows.  A level registers each name
with its help, which is all help pages, usage lines and "invalid choice"
errors show, and builds a child's parser only when argparse reaches it, so
a call builds just the parsers on its argv's path.  Every leaf registers
its handler with ``set_defaults(handler=...)``, and :func:`main` calls
``args.handler(args)``.  The run leaves' handlers get their
:class:`~repro.api.WorkRequest` from one function, :func:`_request`, and
the model flags it reads are generated from :mod:`repro.sweeps`' family
tables.  Handlers import what they need in their own body, so ``import
repro.cli``, ``repro --version`` and the sweep and flood help pages load
no NumPy, and each command loads only what it reaches.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import signal
import sys
from collections.abc import Mapping
from typing import Optional, Sequence

# The family factories moved to repro.sweeps (shared with the fleet worker);
# the redundant ``as`` aliases are explicit re-exports keeping the historical
# ``repro.cli`` names importable.
from repro.sweeps import (
    FLOOD_FAMILY_DEFAULTS,
    SWEEP_FAMILIES as SWEEP_FAMILIES,
    SWEEP_FAMILY_DEFAULTS,
    sweep_edge_meg_model as sweep_edge_meg_model,
    sweep_grid_walk_model as sweep_grid_walk_model,
    sweep_waypoint_model as sweep_waypoint_model,
)

#: Environment fallback for ``--telemetry`` (any command that supports it).
TELEMETRY_ENV = "REPRO_TELEMETRY"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _telemetry_dir(args: argparse.Namespace) -> Optional[str]:
    """The run's telemetry directory: ``--telemetry`` flag, env fallback."""
    return getattr(args, "telemetry_dir", None) or os.environ.get(TELEMETRY_ENV) or None


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _shard_argument(text: str) -> tuple[int, int]:
    from repro.engine.options import parse_shard

    try:
        return parse_shard(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


class _Subcommands(argparse._SubParsersAction):
    """A subparsers level that builds each child parser when it is looked up.

    ``rows`` register the children by name, help and builder, which is all
    the help listing, the usage line and "invalid choice" errors read.
    argparse looks a child up only to dispatch to it, so a call builds just
    the parsers on the path its argv selects.
    """

    class _Parsers(Mapping):
        """name -> child parser, in registration order, built on first lookup."""

        def __init__(self, level, builders: dict):
            self._level, self._builders, self._parsers = level, builders, {}

        def __getitem__(self, name):
            if name not in self._parsers:
                parser = self._level._parser_class(prog=f"{self._level._prog_prefix} {name}")
                self._builders[name](parser)
                self._parsers[name] = parser
            return self._parsers[name]

        def __contains__(self, name):
            return name in self._builders

        def __iter__(self):
            return iter(self._builders)

        def __len__(self):
            return len(self._builders)

    def __init__(self, *args, rows, **kwargs):
        super().__init__(*args, **kwargs)
        pseudo = self._ChoicesPseudoAction
        self._choices_actions = [pseudo(name, (), text) for name, text, _ in rows]
        builders = {name: builder for name, _, builder in rows}
        self.choices = self._name_parser_map = self._Parsers(self, builders)


def _level(dest: str, rows):
    """A builder giving its parser one required subcommand per ``(name, help, builder)``."""
    return lambda parser: parser.add_subparsers(
        action=_Subcommands, dest=dest, required=True, rows=rows
    )


# ---------------------------------------------------------------------- #
# option groups shared by several leaves, added straight to the leaf parser
# ---------------------------------------------------------------------- #
def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Engine options shared by every trial-running subcommand."""
    from repro.engine.options import BACKENDS, EXECUTORS

    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for the trial engine (1 = in-process)",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="flooding kernel: auto, set (python loop), vectorized (dense NumPy) "
             "or sparse (CSR matvec)",
    )
    parser.add_argument(
        "--executor", choices=EXECUTORS, default="process",
        help="pool kind when --workers > 1: process (CPU parallelism, default) "
             "or thread (cheap start-up, IO-bound models); samples are "
             "bit-identical either way",
    )
    parser.add_argument(
        "--results-dir", default=None,
        help="directory of the persistent result store (enables caching)",
    )
    parser.add_argument(
        "--source-chunk", type=_positive_int, default=None, metavar="B",
        help="cap the sources flooded per kernel pass; wider batches record "
             "the realization once and replay it (identical results, "
             "bounded memory)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write machine-readable results to PATH",
    )


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by every execution subcommand.

    Telemetry is strictly opt-in: without --telemetry (or REPRO_TELEMETRY)
    the tracer is a no-op, and enabling it never changes any computed result.
    """
    parser.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="write per-process telemetry event files (spans, metrics) into "
             "DIR; merge them later with `repro telemetry report DIR` "
             f"(default: the {TELEMETRY_ENV} environment variable)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="stdlib logging level for the repro loggers (debug, info, "
             "warning, ...; default: info, or the REPRO_LOG_LEVEL variable)",
    )


def _add_source_options(parser: argparse.ArgumentParser) -> None:
    """Batched-source estimator flags.

    They apply to flood and sweep, not to the registered experiments, whose
    estimators are part of the experiment definition.
    """
    source_options = parser.add_mutually_exclusive_group()
    source_options.add_argument(
        "--all-sources", action="store_true",
        help="flood from every node of each realization in one batch and "
             "report the worst-case flooding time per trial",
    )
    source_options.add_argument(
        "--source-sample", type=_positive_int, default=None, metavar="K",
        help="flood from K sampled sources of each realization in one batch "
             "and report the worst flooding time per trial",
    )


def _add_sweep_points(parser: argparse.ArgumentParser) -> None:
    """The sweep points: node counts, trials per point and the seed."""
    parser.add_argument(
        "--nodes", type=_int_list, default=[64, 128, 256], metavar="N1,N2,...",
        help="comma-separated node counts (the sweep points)",
    )
    parser.add_argument("--trials", type=_positive_int, default=10)
    parser.add_argument("--seed", type=int, default=0)


#: help of each sweep family's subcommand (``sweep`` and ``fleet run sweep``)
_FAMILY_HELP = {
    "edge-meg": "edge-MEG at constant expected degree",
    "waypoint": "random waypoint over a fixed square",
    "grid-walk": "random walks over a fixed augmented grid",
}

#: help of the sweep family parameters that have one
_PARAMETER_HELP = {"q": "edge death rate", "avg_degree": "expected stationary degree"}


def _add_parameters(parser: argparse.ArgumentParser, defaults: dict, helps: dict) -> None:
    """A ``--name`` flag per parameter in a family's ``defaults`` (type and default).

    ``defaults`` is a row of the tables the request facade canonicalizes
    against, so the CLI can never drift from what `repro serve` accepts.
    """
    for name, default in defaults.items():
        parser.add_argument(
            "--" + name.replace("_", "-"), type=type(default), default=default,
            help=helps.get(name),
        )


def _family_level(add_leaf):
    """A ``family`` level with one leaf per sweep family, built by ``add_leaf``."""
    return _level("family", [
        (family, help_text, functools.partial(add_leaf, family=family))
        for family, help_text in _FAMILY_HELP.items()
    ])


def _add_experiment_id(parser: argparse.ArgumentParser) -> None:
    """The experiment positional, with its ``--scale`` and ``--seed``."""
    from repro.experiments import EXPERIMENT_IDS

    parser.add_argument("experiment_id", choices=EXPERIMENT_IDS)
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--seed", type=int, default=0)


# ---------------------------------------------------------------------- #
# the subcommand tree: a builder per leaf, a ``_level`` per inner node
# ---------------------------------------------------------------------- #
def _add_experiments_run(parser: argparse.ArgumentParser) -> None:
    _add_experiment_id(parser)
    parser.add_argument("--markdown", action="store_true", help="render as markdown")
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the report rows as JSON to PATH",
    )
    parser.set_defaults(handler=_run_experiments_run)


def _add_experiments_run_all(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--markdown", action="store_true")
    parser.add_argument("--output", default=None, help="write the report to a file")
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write every report's rows as JSON to PATH",
    )
    parser.set_defaults(handler=_run_experiments_run_all)


_add_experiments = _level("experiments_command", (
    (
        "list", "list the registered experiments",
        lambda parser: parser.set_defaults(handler=_run_experiments_list),
    ),
    ("run", "run a single experiment", _add_experiments_run),
    ("run-all", "run every experiment", _add_experiments_run_all),
))


def _add_experiment(parser: argparse.ArgumentParser) -> None:
    _add_engine_options(parser)
    _add_observability_options(parser)
    _add_experiment_id(parser)
    parser.add_argument(
        "--shard", type=_shard_argument, default=None, metavar="i/K",
        help="run only jobs i, i+K, i+2K, ... of the compiled experiment, "
             "persisting full batch records to --results-dir (required); "
             "merged shard stores are byte-identical to an unsharded run's",
    )
    parser.add_argument(
        "--merge", nargs="*", default=None, metavar="STORE",
        help="merge the given shard STOREs into --results-dir (required) and "
             "assemble the report purely from store records, executing "
             "nothing; with no STOREs, assemble from --results-dir as-is",
    )
    parser.add_argument("--markdown", action="store_true", help="render as markdown")
    parser.set_defaults(handler=_run_experiment_pipeline)


#: each flood model: its help, its --trials default and the help of the
#: parameters that have one (the parameters are FLOOD_FAMILY_DEFAULTS's)
_FLOOD_MODELS = {
    "edge-meg": (
        "classic edge-MEG with birth/death rates", 10,
        {"p": "edge birth rate", "q": "edge death rate"},
    ),
    "waypoint": ("random waypoint over a square", 5, {}),
    "grid-walk": (
        "random walks over a grid mobility graph", 5,
        {"augment_k": "k-augmentation of the grid"},
    ),
}


def _add_flood_model(parser: argparse.ArgumentParser, model: str) -> None:
    _add_engine_options(parser)
    _add_source_options(parser)
    _add_observability_options(parser)
    _, trials, helps = _FLOOD_MODELS[model]
    _add_parameters(parser, FLOOD_FAMILY_DEFAULTS[model], helps)
    parser.add_argument("--trials", type=int, default=trials)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(handler=_run_flood)


_add_flood = _level("model", [
    (model, help_text, functools.partial(_add_flood_model, model=model))
    for model, (help_text, _, _) in _FLOOD_MODELS.items()
])


def _add_sweep_family(parser: argparse.ArgumentParser, family: str) -> None:
    _add_engine_options(parser)
    _add_source_options(parser)
    _add_sweep_points(parser)
    parser.add_argument(
        "--shard", type=_shard_argument, default=None, metavar="i/K",
        help="run only shard i of K: trials i, i+K, i+2K, ... of every sweep "
             "point, with the exact seeds the unsharded sweep would use",
    )
    parser.add_argument(
        "--target-ci", type=float, default=None, metavar="W",
        help="adaptive sampling: stop each sweep point once the confidence "
             "interval around its mean is within ±W (--trials caps the "
             "budget; same seed => same realized trial count at any worker "
             "count)",
    )
    parser.add_argument(
        "--ci-confidence", type=float, default=0.95, metavar="C",
        help="confidence level of the stopping CI (default 0.95)",
    )
    parser.add_argument(
        "--min-trials", type=_positive_int, default=16, metavar="N",
        help="trials to run before the stopping rule may fire (default 16)",
    )
    parser.add_argument(
        "--check-every", type=_positive_int, default=16, metavar="N",
        help="evaluate the stopping rule every N trials (default 16)",
    )
    _add_observability_options(parser)
    _add_parameters(parser, SWEEP_FAMILY_DEFAULTS[family], _PARAMETER_HELP)
    parser.set_defaults(handler=_run_sweep)


_add_sweep = _family_level(_add_sweep_family)


def _add_merge(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "output",
        help="destination store: a .jsonl file or a directory (results.jsonl inside)",
    )
    parser.add_argument(
        "sources", nargs="+",
        help="source stores: .jsonl files or directories holding results.jsonl",
    )
    parser.set_defaults(handler=_run_merge)


def _add_worker(parser: argparse.ArgumentParser) -> None:
    _add_observability_options(parser)
    parser.add_argument("--spool", required=True, help="shared spool directory")
    parser.add_argument(
        "--worker-id", default=None,
        help="identity recorded in lease metadata (default: hostname-pid)",
    )
    parser.add_argument(
        "--poll", type=_positive_float, default=0.5, help="seconds between idle spool scans"
    )
    parser.add_argument(
        "--lease-ttl", type=_positive_float, default=None, metavar="S",
        help="seconds of heartbeat silence before a lease is presumed dead "
             "(default: the spool's persisted configuration)",
    )
    parser.add_argument(
        "--max-attempts", type=_positive_int, default=None, metavar="N",
        help="total execution attempts per job before it is marked failed "
             "(default: the spool's persisted configuration)",
    )
    parser.add_argument(
        "--max-jobs", type=_positive_int, default=None, metavar="N",
        help="exit after executing N jobs (worker recycling)",
    )
    parser.add_argument(
        "--exit-when-empty", action="store_true",
        help="exit once every job has reached a terminal state instead of "
             "polling forever",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run each job under cProfile and write its top hotspots into "
             "the telemetry directory (needs --telemetry)",
    )
    parser.set_defaults(handler=_run_worker)


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    """The spool, shard and worker options of every ``fleet run`` workload."""
    parser.add_argument(
        "--spool", required=True,
        help="spool directory (fresh per run; shared across machines for "
             "multi-machine fleets)",
    )
    parser.add_argument(
        "--shards", type=_positive_int, required=True, metavar="K",
        help="number of shard jobs to compile the workload into",
    )
    parser.add_argument(
        "--local-workers", type=int, default=0, metavar="N",
        help="drain-mode worker processes to spawn locally (0 = external "
             "fleet: run `repro worker --spool DIR` elsewhere)",
    )
    parser.add_argument(
        "--lease-ttl", type=_positive_float, default=None, metavar="S",
        help="seconds of heartbeat silence before a lease is requeued",
    )
    parser.add_argument(
        "--max-attempts", type=_positive_int, default=None, metavar="N",
        help="total execution attempts per job before it is marked failed",
    )
    parser.add_argument(
        "--poll", type=_positive_float, default=0.2, help="monitor seconds between spool scans"
    )
    parser.add_argument(
        "--max-wait", type=_positive_float, default=None, metavar="S",
        help="abort (leaving the spool for inspection) after S seconds",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="spawned local workers run each job under cProfile, writing "
             "hotspots into the telemetry directory (needs --telemetry)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse a partially drained spool: keep completed jobs' verified "
             "results, re-enqueue failed or missing ones — instead of "
             "rejecting the workload's deterministic job ids as duplicates",
    )


def _add_fleet_sweep_family(parser: argparse.ArgumentParser, family: str) -> None:
    _add_engine_options(parser)
    _add_source_options(parser)
    _add_sweep_points(parser)
    _add_fleet_options(parser)
    parser.add_argument(
        "--target-ci", type=float, default=None, metavar="W",
        help="variance-aware sizing: run a local pilot round per sweep "
             "point, then shard a derived fixed budget sized so each CI "
             "half-width lands within ±W (--trials caps each budget)",
    )
    parser.add_argument(
        "--ci-confidence", type=float, default=0.95, metavar="C",
        help="confidence level of the sizing CI (default 0.95)",
    )
    parser.add_argument(
        "--pilot-trials", type=_positive_int, default=16, metavar="N",
        help="pilot trials per sweep point used to estimate variance "
             "(default 16; also the per-point budget floor)",
    )
    _add_observability_options(parser)
    _add_parameters(parser, SWEEP_FAMILY_DEFAULTS[family], _PARAMETER_HELP)
    parser.set_defaults(handler=_run_fleet_run)


def _add_fleet_experiment(parser: argparse.ArgumentParser) -> None:
    _add_engine_options(parser)
    _add_fleet_options(parser)
    _add_observability_options(parser)
    _add_experiment_id(parser)
    parser.add_argument("--markdown", action="store_true", help="render the report as markdown")
    parser.set_defaults(handler=_run_fleet_run)


def _add_fleet_status(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spool", help="spool directory to inspect")
    parser.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit the status snapshot (including jobs/s, requeue rate and "
             "the heartbeat-age distribution) as JSON on stdout",
    )
    parser.set_defaults(handler=_run_fleet_status)


def _add_fleet_top(parser: argparse.ArgumentParser) -> None:
    from repro.fleet.top import DEFAULT_INTERVAL

    parser.add_argument("spool", help="spool directory to watch")
    parser.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="the fleet's shared telemetry directory: adds windowed "
             "throughput, latency quantiles, worker utilization and the "
             f"in-flight panel (default: the {TELEMETRY_ENV} variable)",
    )
    parser.add_argument(
        "--interval", type=float, default=DEFAULT_INTERVAL, metavar="S",
        help=f"seconds between refreshes (default {DEFAULT_INTERVAL:g})",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    parser.add_argument(
        "--until-drained", action="store_true",
        help="exit once every job has reached a terminal state",
    )
    parser.add_argument(
        "--json", dest="as_json", action="store_true",
        help="with --once: print the frame's data as JSON instead of text",
    )
    parser.add_argument(
        "--width", type=_positive_int, default=80, metavar="COLS",
        help="frame width in columns (default 80)",
    )
    parser.set_defaults(handler=_run_fleet_top)


_add_fleet = _level("fleet_command", (
    ("run", "compile, execute and fan in one workload", _level("workload", (
        (
            "sweep", "fleet-execute a node-count sweep of a model family",
            _family_level(_add_fleet_sweep_family),
        ),
        (
            "experiment", "fleet-execute one registered experiment (E1-E10)",
            _add_fleet_experiment,
        ),
    ))),
    (
        "status",
        "inspect a spool: progress, leases, heartbeats, failures, "
        "throughput metrics",
        _add_fleet_status,
    ),
    (
        "top",
        "live dashboard over a draining spool: queue depths, per-worker "
        "utilization and heartbeat age, throughput, drain ETA, slowest "
        "in-flight jobs (refreshes until Ctrl-C)",
        _add_fleet_top,
    ),
))


def _add_serve(parser: argparse.ArgumentParser) -> None:
    from repro.engine.options import BACKENDS
    from repro.serve import DEFAULT_MAX_QUEUE

    _add_observability_options(parser)
    parser.add_argument(
        "--spool", required=True,
        help="job spool cold requests are enqueued into (drain it with "
             "`repro worker --spool DIR` on any number of machines)",
    )
    parser.add_argument(
        "--results-dir", required=True,
        help="result store warm requests are answered from (and cold "
             "results merged into)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 = pick a free ephemeral port)",
    )
    parser.add_argument(
        "--max-queue", type=_positive_int, default=DEFAULT_MAX_QUEUE, metavar="N",
        help="maximum in-flight spool jobs before cold requests are refused "
             f"with 429 (default {DEFAULT_MAX_QUEUE})",
    )
    parser.add_argument(
        "--default-shards", type=_positive_int, default=1, metavar="K",
        help="shard jobs a cold request compiles into when the request "
             "carries no 'shards' hint (default 1)",
    )
    parser.add_argument(
        "--job-workers", type=_positive_int, default=1, metavar="N",
        help="engine worker processes each fleet job runs with",
    )
    parser.add_argument(
        "--job-backend", choices=BACKENDS, default="auto",
        help="flooding kernel each fleet job runs with",
    )
    parser.set_defaults(handler=_run_serve)


def _add_telemetry_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("directory", help="telemetry directory to merge")
    parser.add_argument(
        "--top", type=_positive_int, default=5, metavar="N",
        help="slowest jobs to list (default 5)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the merged summary as JSON to PATH",
    )
    parser.set_defaults(handler=_run_telemetry_report)


def _add_telemetry_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id (from an X-Trace-Id response header, a ticket "
             "record, or `repro telemetry trace` with no id)",
    )
    parser.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="telemetry directory holding the run's event files "
             f"(default: the {TELEMETRY_ENV} environment variable)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the reconstructed trace (or the trace list) as JSON",
    )
    parser.set_defaults(handler=_run_telemetry_trace)


def _add_telemetry_export(parser: argparse.ArgumentParser) -> None:
    from repro.telemetry.timeseries import DEFAULT_WINDOW_SECONDS

    parser.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="telemetry directory holding the run's event files "
             f"(default: the {TELEMETRY_ENV} environment variable)",
    )
    parser.add_argument(
        "--window", type=_positive_float, default=DEFAULT_WINDOW_SECONDS, metavar="S",
        help="sliding window for rates and latency quantiles "
             f"(default {DEFAULT_WINDOW_SECONDS:g}s)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="byte-offset checkpoint file: resume tailing where the last "
             "export stopped instead of re-reading history, and save the "
             "new position on exit",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the exposition to PATH instead of stdout",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="strictly validate the exposition before emitting it "
             "(exit 1 on malformed output; what CI's metrics smoke runs)",
    )
    parser.set_defaults(handler=_run_telemetry_export)


_add_telemetry = _level("telemetry_command", (
    (
        "report",
        "merge a telemetry directory's per-process event files into one "
        "run summary: phase breakdown, store hit rate, worker "
        "utilization, slowest jobs, requeue forensics",
        _add_telemetry_report,
    ),
    (
        "trace",
        "reconstruct one propagated trace across processes: the span "
        "tree (serve request -> spool wait -> worker lease -> engine "
        "chunks) with critical-path timing; omit the id to list the "
        "traces a directory holds",
        _add_telemetry_trace,
    ),
    (
        "export",
        "render a telemetry directory as Prometheus text exposition "
        "(counters, gauges, timing summaries, windowed jobs/s + "
        "latency quantiles + requeue rate, cache hit ratio)",
        _add_telemetry_export,
    ),
))


#: The top-level subcommands, in ``repro --help`` order: (name, help, builder).
COMMANDS = (
    ("experiments", "run the registered experiments E1-E10", _add_experiments),
    (
        "experiment",
        "run one registered experiment (E1-E10) through the engine "
        "pipeline (shardable across machines)",
        _add_experiment,
    ),
    ("flood", "measure flooding on a chosen model", _add_flood),
    (
        "sweep",
        "run a node-count sweep of a model family (shardable across machines)",
        _add_sweep,
    ),
    (
        "merge-results",
        "union result stores (reassembling sharded batches) into one store",
        _add_merge,
    ),
    (
        "worker",
        "run a fleet worker daemon: lease jobs from a spool, execute, "
        "heartbeat, mark done/failed",
        _add_worker,
    ),
    ("fleet", "drive a whole sharded workload through a worker fleet", _add_fleet),
    (
        "serve",
        "serve simulation results over HTTP: warm requests answered "
        "straight from the result store, cold ones enqueued as fleet "
        "jobs and pollable by ticket",
        _add_serve,
    ),
    ("telemetry", "inspect telemetry directories written with --telemetry", _add_telemetry),
)


class _VersionAction(argparse.Action):
    """``--version``: look the version up only when it is asked for.

    Reading the installed package metadata costs tens of milliseconds, which
    every other command would pay if the parser formatted it up front.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        from repro import __version__

        print(f"{parser.prog} {__version__}")
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser; each subcommand's parser is built when reached."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Information Spreading in Dynamic Graphs' (PODC 2012)",
    )
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0, default=argparse.SUPPRESS,
        help="print the package version and exit",
    )
    _level("command", COMMANDS)(parser)
    return parser


# ---------------------------------------------------------------------- #
# handlers (each imports what it uses, so a command loads only its modules)
# ---------------------------------------------------------------------- #
def _output_problem(args: argparse.Namespace) -> Optional[str]:
    """Why an output path of ``args`` is unusable, or None when all are usable.

    ``--json`` and ``--output`` files must land in an existing directory and
    are not created here.  The ``--results-dir`` directory is created, as
    the store would create it.
    """
    for flag, path in (("--json", getattr(args, "json_path", None)),
                       ("--output", getattr(args, "output", None))):
        if not path:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            return f"cannot write {flag} {path}: {os.strerror(errno.EISDIR)}"
        if not os.path.isdir(directory):
            return f"cannot write {flag} {path}: no directory {directory}"
        if not os.access(path if os.path.exists(path) else directory, os.W_OK):
            return f"cannot write {flag} {path}: {os.strerror(errno.EACCES)}"
    results_dir = getattr(args, "results_dir", None)
    if results_dir:
        try:
            os.makedirs(results_dir, exist_ok=True)
        except OSError as error:
            return f"cannot create --results-dir {results_dir}: {error.strerror}"
    return None


def _outputs_unusable(args: argparse.Namespace) -> bool:
    """Check the output paths before any trial runs; print why one fails.

    Call it only once the request has compiled: it creates ``--results-dir``,
    and a rejected request should leave nothing behind.
    """
    problem = _output_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
    return problem is not None


def _engine_config(args: argparse.Namespace) -> dict:
    """The engine flags as ``Engine`` keywords (also carried in fleet job descriptors)."""
    return {
        "workers": args.workers,
        "backend": args.backend,
        "executor": args.executor,
        "source_chunk": args.source_chunk,
    }


def _build_engine(args: argparse.Namespace):
    """Engine configured from the shared engine flags and --results-dir."""
    from repro.engine.engine import Engine
    from repro.engine.store import ResultStore

    store = ResultStore(args.results_dir) if args.results_dir else None
    return Engine(**_engine_config(args), store=store)


def _write_json(path: str, payload) -> None:
    from repro.engine.store import jsonify

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(jsonify(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _renderer(args: argparse.Namespace):
    """The report renderer ``--markdown`` asks for."""
    from repro.experiments.report import format_markdown, format_table

    return format_markdown if getattr(args, "markdown", False) else format_table


def _print_report(args: argparse.Namespace, report) -> None:
    """Print an experiment report as ``--markdown`` asks; write its rows to ``--json``."""
    print(_renderer(args)(report))
    if args.json_path:
        _write_json(args.json_path, report.as_dict())


def _run_experiments_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS

    for experiment_id, experiment in EXPERIMENTS.items():
        print(f"{experiment_id}: {experiment.title}  [{experiment.paper_reference}]")
    return 0


def _run_experiments_run(args: argparse.Namespace) -> int:
    from repro.api import RequestError
    from repro.experiments.registry import run_experiment

    if _outputs_unusable(args):
        return 2
    try:
        report = run_experiment(args.experiment_id, scale=args.scale, seed=args.seed)
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_report(args, report)
    return 0


def _run_experiments_run_all(args: argparse.Namespace) -> int:
    from repro.api import RequestError
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if _outputs_unusable(args):
        return 2
    try:
        reports = [
            run_experiment(experiment_id, scale=args.scale, seed=args.seed)
            for experiment_id in EXPERIMENTS
        ]
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    output = "\n\n".join(map(_renderer(args), reports))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
        print(f"wrote {args.output}")
    else:
        print(output)
    if args.json_path:
        _write_json(args.json_path, [report.as_dict() for report in reports])
    return 0


def _request(args: argparse.Namespace):
    """The ``WorkRequest`` of a ``sweep``, ``flood``, ``experiment`` or ``fleet run`` argv.

    Only ``repro sweep`` has the stopping-rule flags: ``fleet run sweep
    --target-ci`` sizes a fixed budget from a pilot round instead.  Raises
    ``ValueError`` on values argparse let through.
    """
    from repro.api import experiment_request, flood_request, sweep_request

    if hasattr(args, "experiment_id"):
        return experiment_request(args.experiment_id, scale=args.scale, seed=args.seed)
    sources = {"sources": "all" if args.all_sources else None, "num_sources": args.source_sample}
    if hasattr(args, "model"):
        params = {name: getattr(args, name) for name in FLOOD_FAMILY_DEFAULTS[args.model]}
        return flood_request(args.model, args.trials, seed=args.seed, params=params, **sources)
    stopping = None
    if hasattr(args, "check_every") and args.target_ci is not None:
        from repro.stats.sequential import StoppingRule

        stopping = StoppingRule(
            target_halfwidth=args.target_ci,
            confidence=args.ci_confidence,
            min_trials=args.min_trials,
            check_every=args.check_every,
        )
    params = {name: getattr(args, name) for name in SWEEP_FAMILY_DEFAULTS[args.family]}
    return sweep_request(
        args.family, args.nodes, args.trials, seed=args.seed, params=params,
        stopping=stopping, **sources,
    )


def _experiment_report(plan, records):
    """The report an experiment plan assembles from ``{job tag: record}``."""
    from repro.experiments.report import ExperimentReport

    return ExperimentReport(**plan.assemble(records)["report"])


def _run_experiment_pipeline(args: argparse.Namespace) -> int:
    from repro.api import RequestError, compile_request
    from repro.engine.store import MergeConflictError
    from repro.experiments.pipeline import MissingRecordError

    if args.shard is not None and args.merge is not None:
        print("error: --shard and --merge are mutually exclusive", file=sys.stderr)
        return 2
    if (args.shard is not None or args.merge is not None) and not args.results_dir:
        print(
            "error: --shard and --merge need --results-dir (the store that "
            "carries results between the fan-out and fan-in steps)",
            file=sys.stderr,
        )
        return 2
    try:
        plan = compile_request(_request(args))
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if _outputs_unusable(args):
        return 2
    engine = _build_engine(args)

    if args.merge is not None:
        store = engine.store
        assert store is not None  # enforced above
        if args.merge:
            try:
                merge_report = store.merge(*args.merge)
                store.compact()
            except (MergeConflictError, FileNotFoundError) as error:
                print(f"merge failed: {error}", file=sys.stderr)
                return 1
            print(
                f"merged {len(args.merge)} store(s) into {store.path} "
                f"({merge_report.records} records, {merge_report.adopted} adopted)"
            )
        try:
            records = plan.records(store)
        except MissingRecordError as error:
            print(f"assembly failed: {error}", file=sys.stderr)
            return 1
        _print_report(args, _experiment_report(plan, records))
        return 0

    batches = plan.run(engine, shard=args.shard)
    if args.shard is not None:
        index, count = args.shard
        print(
            f"experiment {args.experiment_id} (scale={args.scale}, seed={args.seed}), "
            f"shard {index}/{count}: {len(batches)}/{len(plan.jobs)} jobs"
        )
        print(f"engine: workers={engine.workers}, backend={engine.backend}, "
              f"results-dir={args.results_dir}")
        for tag, batch in batches.items():
            print(
                f"  {tag:>16}  trials={batch.num_trials:>4}  mean {batch.mean:8.1f}"
                + ("  [cached]" if batch.from_cache else "")
            )
        if args.json_path:
            _write_json(
                args.json_path,
                {
                    "experiment_id": args.experiment_id,
                    "scale": args.scale,
                    "seed": args.seed,
                    "shard": [index, count],
                    "jobs": [
                        {
                            "tag": tag,
                            "num_trials": batch.num_trials,
                            "flooding_times": list(batch.flooding_times),
                            "from_cache": batch.from_cache,
                        }
                        for tag, batch in batches.items()
                    ],
                },
            )
        return 0

    report = _experiment_report(
        plan, {tag: batch.as_dict() for tag, batch in batches.items()}
    )
    print(_renderer(args)(report))
    num_cached = sum(1 for batch in batches.values() if batch.from_cache)
    if num_cached:
        print(f"\n({num_cached}/{len(batches)} job(s) served from the result store)")
    if args.json_path:
        _write_json(args.json_path, report.as_dict())
    return 0


def _run_flood(args: argparse.Namespace) -> int:
    from repro.api import RequestError, compile_request, estimator_description
    from repro.core.bounds import classic_edge_meg_bound, corollary6_bound, waypoint_flooding_bound
    from repro.util.stats import summarize

    try:
        plan = compile_request(_request(args))
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if _outputs_unusable(args):
        return 2
    spec = plan.jobs[0].spec
    model = spec.args[0]

    if args.model == "edge-meg":
        bound = classic_edge_meg_bound(args.nodes, args.p, args.q)
        description = f"edge-MEG(n={args.nodes}, p={args.p}, q={args.q})"
    elif args.model == "waypoint":
        bound = waypoint_flooding_bound(args.nodes, args.side, args.radius, args.speed)
        description = (
            f"random waypoint(n={args.nodes}, L={args.side}, r={args.radius}, v={args.speed})"
        )
    else:  # grid-walk
        from repro.graphs.grid import augmented_grid_graph
        from repro.graphs.properties import degree_regularity
        from repro.markov.mixing import mixing_time

        graph = augmented_grid_graph(args.grid_side, args.augment_k)
        bound = corollary6_bound(
            args.nodes,
            mixing_time(model.to_markov_chain()),
            graph.number_of_nodes(),
            degree_regularity(graph),
        )
        description = (
            f"grid random walk(n={args.nodes}, side={args.grid_side}, k={args.augment_k})"
        )

    engine = _build_engine(args)
    estimator = estimator_description(plan.request.sources, plan.request.num_sources)
    samples = list(plan.run(engine)["flood"].flooding_times)
    summary = summarize(samples)
    print(f"model:  {description}")
    print(f"engine: workers={engine.workers}, backend={engine.backend}"
          + (f", results-dir={args.results_dir}" if args.results_dir else ""))
    print(f"estimator: {estimator} per realization")
    print(f"trials: {summary.count}")
    print(
        "flooding time: "
        f"mean {summary.mean:.1f}, median {summary.median:.1f}, "
        f"min {summary.minimum:.0f}, max {summary.maximum:.0f}"
    )
    print(f"paper bound (constant = 1): {bound:.1f}")
    if args.json_path:
        _write_json(
            args.json_path,
            {
                "model": description,
                "seed": args.seed,
                "engine": {"workers": engine.workers, "backend": engine.backend},
                "estimator": estimator,
                "samples": samples,
                "summary": summary.as_dict(),
                "paper_bound": bound,
            },
        )
    return 0


def _measurement_line(measurement) -> str:
    """A sweep point's printed row: node count, trials, mean, median and max."""
    summary = measurement.summary
    return (
        f"  n={measurement.parameter:>6}  trials={summary.count:>4}  "
        f"mean {summary.mean:8.1f}  median {summary.median:8.1f}  "
        f"max {summary.maximum:8.0f}"
    )


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.api import compile_request, estimator_description
    from repro.experiments.runner import measurement_from_batch, sweep_as_dicts
    from repro.util.stats import halfwidth

    if args.shard is not None and args.shard[1] > args.trials:
        print(
            f"error: shard count {args.shard[1]} exceeds --trials {args.trials} "
            f"(some shards would be empty)",
            file=sys.stderr,
        )
        return 2
    if args.target_ci is not None and args.shard is not None:
        print(
            "error: --target-ci cannot be combined with --shard (the stopping "
            "decision at trial t needs all earlier samples; use `repro fleet "
            "run sweep --target-ci` for multi-machine adaptive sweeps)",
            file=sys.stderr,
        )
        return 2
    try:
        request = _request(args)
        plan = compile_request(request)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if _outputs_unusable(args):
        return 2
    engine = _build_engine(args)
    stopping = request.stopping
    estimator = estimator_description(request.sources, request.num_sources)
    batches = plan.run(engine, shard=args.shard)
    measurements = [measurement_from_batch(job.spec, batches[job.tag]) for job in plan.jobs]
    shard_note = f", shard {args.shard[0]}/{args.shard[1]}" if args.shard else ""
    print(f"sweep:  {args.family} over n = {args.nodes}{shard_note}")
    print(f"engine: workers={engine.workers}, backend={engine.backend}"
          + (f", results-dir={args.results_dir}" if args.results_dir else ""))
    print(f"estimator: {estimator} per realization")
    if stopping is not None:
        print(
            f"adaptive: stop at CI half-width <= {stopping.target_halfwidth:g} "
            f"({stopping.confidence:.0%}), budget {args.trials} trials/point"
        )
    for measurement in measurements:
        line = _measurement_line(measurement)
        if stopping is not None:
            summary = measurement.summary
            ci = halfwidth(summary.std, summary.count, stopping.confidence)
            line += f"  ci ±{ci:6.2f}"
            line += "  [stopped early]" if measurement.stopped_early else ""
        line += "  [cached]" if measurement.from_cache else ""
        print(line)
    if args.json_path:
        payload = {
            "family": args.family,
            "nodes": args.nodes,
            "trials": args.trials,
            "seed": args.seed,
            "shard": list(args.shard) if args.shard else None,
            "estimator": estimator,
            "factory_kwargs": request.params,
            "engine": {"workers": engine.workers, "backend": engine.backend},
            "measurements": sweep_as_dicts(measurements),
        }
        if stopping is not None:
            # Emitted only on adaptive runs so fixed-count sweep JSON stays
            # byte-identical to every release before adaptive sampling.
            payload["stopping"] = stopping.as_dict()
        _write_json(args.json_path, payload)
    return 0


def _profile_unusable(args: argparse.Namespace, telemetry_dir: Optional[str]) -> bool:
    """Whether ``--profile`` lacks the telemetry directory it writes into; says why."""
    unusable = args.profile and not telemetry_dir
    if unusable:
        print(
            "error: --profile needs a telemetry directory (--telemetry DIR or "
            f"{TELEMETRY_ENV}) to write the hotspot reports into",
            file=sys.stderr,
        )
    return unusable


def _run_worker(args: argparse.Namespace) -> int:
    from repro.fleet.worker import run_worker

    telemetry_dir = _telemetry_dir(args)
    if _profile_unusable(args, telemetry_dir):
        return 2
    try:
        return run_worker(
            args.spool,
            worker_id=args.worker_id,
            poll=args.poll,
            lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            exit_when_empty=args.exit_when_empty,
            max_jobs=args.max_jobs,
            profile_dir=telemetry_dir if args.profile else None,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("worker interrupted", file=sys.stderr)
        return 130


def _missing_root(path: str) -> Optional[str]:
    """The outermost directory on ``path`` that does not exist yet (None if none)."""
    path, root = os.path.abspath(path), None
    while not os.path.exists(path):
        path, root = os.path.dirname(path), path
    return root


def _run_fleet_run(args: argparse.Namespace) -> int:
    if not args.results_dir:
        print(
            "error: fleet run needs --results-dir (the destination the job "
            "stores are merged into)",
            file=sys.stderr,
        )
        return 2
    created, status = _missing_root(args.results_dir), 1
    try:
        status = _fleet_run(args)
    finally:
        # A failed run leaves behind no results directory that it made (nor
        # removes the spool its error message points to).
        spool = os.path.abspath(args.spool)
        if status and created is not None and os.path.commonpath([spool, created]) != created:
            import shutil

            shutil.rmtree(created, ignore_errors=True)
    return status


def _fleet_run(args: argparse.Namespace) -> int:
    from repro.api import RequestError, compile_request, estimator_description
    from repro.engine.engine import Engine
    from repro.engine.store import MergeConflictError, ResultStore
    from repro.experiments.runner import measurement_from_record, sweep_as_dicts
    from repro.fleet.coordinator import (
        FleetError,
        merge_fleet_stores,
        plan_variance_budgets,
        run_fleet,
    )
    from repro.fleet.jobs import request_job_payloads
    from repro.fleet.queue import JobSpool
    from repro.telemetry import core as telemetry

    telemetry_dir = _telemetry_dir(args)
    if _outputs_unusable(args) or _profile_unusable(args, telemetry_dir):
        return 2
    try:
        request = _request(args)
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        sizing_report = None
        if args.workload == "sweep" and args.target_ci is not None:
            # Variance-aware sizing: a store-less local pilot round per
            # sweep point, then the fleet shards the derived fixed budgets
            # through the normal byte-identical machinery.
            request, sizing_report = plan_variance_budgets(
                request,
                args.target_ci,
                engine=Engine(**_engine_config(args)),
                pilot_trials=args.pilot_trials,
                confidence=args.ci_confidence,
            )
            print(
                f"pilot: {args.pilot_trials} trials/point, target CI "
                f"±{args.target_ci:g} at {args.ci_confidence:.0%} -> "
                f"{sizing_report['total_budget']} trials total "
                f"(fixed budget would be {sizing_report['fixed_total']})"
            )
            for point in sizing_report["points"]:
                print(
                    f"  {point['tag']:<24} pilot std {point['pilot_std']:8.2f}"
                    f"  required {point['required_trials']:>6}"
                    f"  budget {point['budget']:>6} (cap {point['cap']})"
                )
        plan = compile_request(request)
        payloads = request_job_payloads(plan, args.shards, engine=_engine_config(args))
        spool = JobSpool(args.spool, lease_ttl=args.lease_ttl, max_attempts=args.max_attempts)
        outcome = run_fleet(
            spool,
            plan,
            payloads,
            local_workers=args.local_workers,
            poll=args.poll,
            max_wait=args.max_wait,
            telemetry_dir=telemetry_dir,
            profile=args.profile,
            log_level=getattr(args, "log_level", None),
            resume=args.resume,
        )
    except (FleetError, ValueError) as error:
        print(f"fleet run failed: {error}", file=sys.stderr)
        return 1
    if not outcome.ok:
        for job_id in outcome.failed:
            print(f"job {job_id} failed: {outcome.errors.get(job_id)}", file=sys.stderr)
        print(
            f"fleet run failed: {len(outcome.failed)} job(s) exhausted their "
            f"retry budget; inspect with: repro fleet status {spool.root}",
            file=sys.stderr,
        )
        return 1

    destination = ResultStore.at(args.results_dir)
    try:
        merge_report = merge_fleet_stores(spool, plan, payloads, destination)
    except (FleetError, MergeConflictError, FileNotFoundError) as error:
        print(f"fleet fan-in failed: {error}", file=sys.stderr)
        return 1
    requeued = f", {len(outcome.requeued)} lease(s) requeued" if outcome.requeued else ""
    print(
        f"fleet: {len(outcome.done)} job(s) done in "
        f"{outcome.elapsed_seconds:.1f}s{requeued}"
    )
    if telemetry_dir and outcome.trace:
        print(
            f"trace: {outcome.trace}  (inspect with: repro telemetry trace "
            f"{outcome.trace} --telemetry {telemetry_dir})"
        )
    print(
        f"merged {len(payloads)} job store(s) into {destination.path} "
        f"({merge_report.records} records, {merge_report.assembled} batches assembled)"
    )

    if args.workload == "sweep":
        records = plan.records(destination)
        measurements = [
            measurement_from_record(job.spec, records[job.tag]) for job in plan.jobs
        ]
        estimator = estimator_description(request.sources, request.num_sources)
        print(f"sweep:  {args.family} over n = {args.nodes}  ({args.shards} fleet shards)")
        print(f"estimator: {estimator} per realization")
        for measurement in measurements:
            print(_measurement_line(measurement))
        if args.json_path:
            payload = {
                "family": args.family,
                "nodes": args.nodes,
                "trials": args.trials,
                "seed": args.seed,
                "shards": args.shards,
                "estimator": estimator,
                "factory_kwargs": request.params,
                "measurements": sweep_as_dicts(measurements),
            }
            if sizing_report is not None:
                # Only adaptive runs carry the sizing block, so fixed-count
                # fleet JSON stays byte-identical to earlier releases.
                payload["sizing"] = sizing_report
            _write_json(args.json_path, payload)
        return 0

    with telemetry.span("fleet.assemble", experiment=args.experiment_id):
        report = _experiment_report(plan, plan.records(destination))
    _print_report(args, report)
    return 0


def _run_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet.queue import JobSpool
    from repro.fleet.status import format_status, spool_metrics, spool_status, status_as_dict

    if not os.path.isdir(args.spool):
        print(f"error: no spool directory at {args.spool}", file=sys.stderr)
        return 2
    spool = JobSpool(args.spool)
    status = spool_status(spool)
    metrics = spool_metrics(spool, status)
    if args.as_json:
        print(json.dumps(status_as_dict(status, metrics), indent=2, sort_keys=True))
    else:
        print(format_status(status, metrics))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.engine.store import ResultStore
    from repro.fleet.queue import JobSpool
    from repro.serve.http import create_server
    from repro.serve.service import SimulationService

    store = ResultStore.at(args.results_dir)
    spool = JobSpool(args.spool)
    service = SimulationService(
        store,
        spool,
        max_queue=args.max_queue,
        default_shards=args.default_shards,
        engine_config={"workers": args.job_workers, "backend": args.job_backend},
    )
    server = create_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port}", flush=True)
    print(f"repro serve: store {store.path}  spool {spool.root}", flush=True)
    print(
        "repro serve: POST /v1/requests  GET /v1/requests/<ticket>  "
        "GET /v1/status  GET /metrics  GET /healthz",
        flush=True,
    )

    def _graceful_shutdown(signum, frame):
        raise KeyboardInterrupt

    # Background launches (`repro serve ... &` in scripts and CI steps)
    # inherit SIGINT as ignored; re-arm both stop signals so the server
    # always exits through the finally (socket close, telemetry flush).
    try:
        signal.signal(signal.SIGINT, _graceful_shutdown)
        signal.signal(signal.SIGTERM, _graceful_shutdown)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        # Fills append to the store; leave it in canonical form.
        if os.path.exists(store.path):
            store.compact()
    return 0


def _run_telemetry_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import format_report, load_events, summarize_events

    try:
        events, skipped = load_events(args.directory, with_skipped=True)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not events:
        print(f"no telemetry events under {args.directory}", file=sys.stderr)
        return 1
    summary = summarize_events(events, top=args.top, skipped_lines=skipped)
    print(format_report(summary))
    if args.json_path:
        _write_json(args.json_path, summary)
    return 0


def _telemetry_dir_or_error(args: argparse.Namespace) -> Optional[str]:
    """The existing telemetry directory of trace/export, or None after an error."""
    directory = _telemetry_dir(args)
    if not directory:
        print(
            "error: no telemetry directory (pass --telemetry DIR or set "
            f"{TELEMETRY_ENV})",
            file=sys.stderr,
        )
        return None
    if not os.path.isdir(directory):
        print(f"error: no telemetry directory at {directory}", file=sys.stderr)
        return None
    return directory


def _run_telemetry_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.report import load_events
    from repro.telemetry.trace import format_trace, list_traces, summarize_trace

    directory = _telemetry_dir_or_error(args)
    if directory is None:
        return 2
    events = load_events(directory)
    if args.trace_id is None:
        entries = list_traces(events)
        if not entries:
            print(f"no traced events under {directory}", file=sys.stderr)
            return 1
        print(f"{len(entries)} trace(s) under {directory} (newest first):")
        for entry in entries:
            print(
                f"  {entry['trace']}  {entry['root'] or '?':<16} "
                f"{entry['spans']:>3} span(s)  "
                f"{entry['processes']} process(es)  "
                f"{entry['wall_seconds']:.3f}s"
            )
        if args.json_path:
            _write_json(args.json_path, entries)
        return 0
    summary = summarize_trace(events, args.trace_id)
    if not summary["spans"] and not summary["events"]:
        print(
            f"no events for trace {args.trace_id} under {directory} "
            "(list traces with: repro telemetry trace --telemetry DIR)",
            file=sys.stderr,
        )
        return 1
    print(format_trace(summary), end="")
    if args.json_path:
        _write_json(args.json_path, summary)
    return 0


def _run_telemetry_export(args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.telemetry.timeseries import TelemetryTailer, validate_exposition

    directory = _telemetry_dir_or_error(args)
    if directory is None:
        return 2
    tailer = TelemetryTailer(directory, window=args.window)
    if args.checkpoint:
        tailer.load_checkpoint(args.checkpoint)
    text = tailer.exposition(version=__version__)
    if args.check:
        try:
            validate_exposition(text)
        except ValueError as error:
            print(f"error: invalid exposition: {error}", file=sys.stderr)
            return 1
    if args.checkpoint:
        tailer.save_checkpoint(args.checkpoint)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _run_fleet_top(args: argparse.Namespace) -> int:
    from repro.engine.store import jsonify
    from repro.fleet.queue import JobSpool
    from repro.fleet.top import gather_frame, run_top
    from repro.telemetry.timeseries import TelemetryTailer

    if not os.path.isdir(args.spool):
        print(f"error: no spool directory at {args.spool}", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"error: --interval must be positive, got {args.interval:g}",
              file=sys.stderr)
        return 2
    telemetry_dir = _telemetry_dir(args)
    if args.as_json:
        if not args.once:
            print("error: --json needs --once (one frame, machine-readable)",
                  file=sys.stderr)
            return 2
        tailer = TelemetryTailer(telemetry_dir) if telemetry_dir else None
        frame = gather_frame(JobSpool(args.spool), tailer)
        print(json.dumps(jsonify(frame), indent=2, sort_keys=True))
        return 0
    return run_top(
        args.spool,
        telemetry_dir=telemetry_dir,
        interval=args.interval,
        once=args.once,
        follow_until_drained=args.until_drained,
        width=args.width,
    )


def _run_merge(args: argparse.Namespace) -> int:
    from repro.engine.store import MergeConflictError, ResultStore

    destination = ResultStore.at(args.output)
    try:
        report = destination.merge(*args.sources)
        destination.compact()
    except (MergeConflictError, FileNotFoundError) as error:
        print(f"merge failed: {error}", file=sys.stderr)
        return 1
    print(f"merged {len(args.sources)} store(s) into {destination.path}")
    print(
        f"records: {report.records}  adopted: {report.adopted}  "
        f"assembled batches: {report.assembled}  pending shards: {report.pending_shards}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    args = _build_parser().parse_args(argv)

    from repro.telemetry import core as telemetry_core
    from repro.telemetry.log import configure as configure_logging

    try:
        configure_logging(getattr(args, "log_level", None))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    telemetry_dir = _telemetry_dir(args) if args.command != "telemetry" else None
    if telemetry_dir is not None:
        telemetry_core.enable(telemetry_dir)
    try:
        return args.handler(args)
    finally:
        if telemetry_dir is not None:
            telemetry_core.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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
subcommands as ``(name, help, builder)`` rows.  The top-level parser always
registers every name with its help (so ``repro --help``, usage lines and
"invalid choice" errors never change), but :func:`main` runs only the
builder of the invoked subcommand — the first argv token that is not an
option — which adds that subcommand's whole parser subtree.  Every leaf
parser registers its handler with ``set_defaults(handler=...)``, and
:func:`main` calls ``args.handler(args)``.  Handlers import the modules
they need in their own body, so ``import repro.cli`` and ``repro
--version`` load no NumPy, and each command loads only what it reaches.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import signal
import sys
from typing import Optional, Sequence

# The family factories moved to repro.sweeps (shared with the fleet worker);
# the redundant ``as`` aliases are explicit re-exports keeping the historical
# ``repro.cli`` names importable.
from repro.sweeps import (
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
    from repro.engine.shard import parse_shard

    try:
        return parse_shard(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _experiment_ids() -> list[str]:
    from repro.experiments.registry import EXPERIMENTS

    return sorted(EXPERIMENTS, key=lambda e: int(e[1:]))


# ---------------------------------------------------------------------- #
# option groups shared by several subcommands (built by the branches that
# use them, never for a call that does not)
# ---------------------------------------------------------------------- #
def _engine_options() -> argparse.ArgumentParser:
    """Engine options shared by every trial-running subcommand."""
    from repro.engine.engine import BACKENDS, EXECUTORS

    engine_options = argparse.ArgumentParser(add_help=False)
    engine_options.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for the trial engine (1 = in-process)",
    )
    engine_options.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="flooding kernel: auto, set (python loop), vectorized (dense NumPy) "
             "or sparse (CSR matvec)",
    )
    engine_options.add_argument(
        "--executor", choices=EXECUTORS, default="process",
        help="pool kind when --workers > 1: process (CPU parallelism, default) "
             "or thread (cheap start-up, IO-bound models); samples are "
             "bit-identical either way",
    )
    engine_options.add_argument(
        "--results-dir", default=None,
        help="directory of the persistent result store (enables caching)",
    )
    engine_options.add_argument(
        "--source-chunk", type=_positive_int, default=None, metavar="B",
        help="cap the sources flooded per kernel pass; wider batches record "
             "the realization once and replay it (identical results, "
             "bounded memory)",
    )
    engine_options.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write machine-readable results to PATH",
    )
    return engine_options


def _observability_options() -> argparse.ArgumentParser:
    """Observability flags shared by every execution subcommand.

    Telemetry is strictly opt-in: without --telemetry (or REPRO_TELEMETRY)
    the tracer is a no-op, and enabling it never changes any computed result.
    """
    observability_options = argparse.ArgumentParser(add_help=False)
    observability_options.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="write per-process telemetry event files (spans, metrics) into "
             "DIR; merge them later with `repro telemetry report DIR` "
             f"(default: the {TELEMETRY_ENV} environment variable)",
    )
    observability_options.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="stdlib logging level for the repro loggers (debug, info, "
             "warning, ...; default: info, or the REPRO_LOG_LEVEL variable)",
    )
    return observability_options


def _source_parent() -> argparse.ArgumentParser:
    """Batched-source estimator flags.

    They apply to flood and sweep, not to the registered experiments, whose
    estimators are part of the experiment definition.
    """
    source_parent = argparse.ArgumentParser(add_help=False)
    source_options = source_parent.add_mutually_exclusive_group()
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
    return source_parent


def _sweep_points() -> argparse.ArgumentParser:
    """The sweep points: node counts, trials per point and the seed."""
    sweep_points = argparse.ArgumentParser(add_help=False)
    sweep_points.add_argument(
        "--nodes", type=_int_list, default=[64, 128, 256], metavar="N1,N2,...",
        help="comma-separated node counts (the sweep points)",
    )
    sweep_points.add_argument("--trials", type=_positive_int, default=10)
    sweep_points.add_argument("--seed", type=int, default=0)
    return sweep_points


#: help of each sweep family's subcommand (``sweep`` and ``fleet run sweep``)
_FAMILY_HELP = {
    "edge-meg": "edge-MEG at constant expected degree",
    "waypoint": "random waypoint over a fixed square",
    "grid-walk": "random walks over a fixed augmented grid",
}


def _family_parameters() -> dict[str, argparse.ArgumentParser]:
    """Per-family model parameters, shared by `sweep` and `fleet run sweep`.

    Flags, types and defaults are generated from SWEEP_FAMILY_DEFAULTS — the
    same table the request facade canonicalizes against — so the CLI can
    never drift from what `repro serve` and the fleet accept.
    """
    param_help = {
        "q": "edge death rate",
        "avg_degree": "expected stationary degree",
    }
    family_params = {}
    for family, defaults in SWEEP_FAMILY_DEFAULTS.items():
        family_parser = argparse.ArgumentParser(add_help=False)
        for name, default in defaults.items():
            family_parser.add_argument(
                "--" + name.replace("_", "-"), type=type(default), default=default,
                help=param_help.get(name),
            )
        family_params[family] = family_parser
    return family_params


# ---------------------------------------------------------------------- #
# one builder per top-level subcommand: ``builder(subparsers, name, help)``
# ---------------------------------------------------------------------- #
def _add_experiments(subparsers, name: str, help_text: str) -> None:
    experiment_ids = _experiment_ids()
    experiments = subparsers.add_parser(name, help=help_text)
    experiments_sub = experiments.add_subparsers(dest="experiments_command", required=True)
    experiments_sub.add_parser(
        "list", help="list the registered experiments"
    ).set_defaults(handler=_run_experiments_list)
    run_one = experiments_sub.add_parser("run", help="run a single experiment")
    run_one.add_argument("experiment_id", choices=experiment_ids)
    run_one.add_argument("--scale", choices=("small", "full"), default="small")
    run_one.add_argument("--seed", type=int, default=0)
    run_one.add_argument("--markdown", action="store_true", help="render as markdown")
    run_one.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the report rows as JSON to PATH",
    )
    run_one.set_defaults(handler=_run_experiments_run)
    run_all = experiments_sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--scale", choices=("small", "full"), default="small")
    run_all.add_argument("--seed", type=int, default=0)
    run_all.add_argument("--markdown", action="store_true")
    run_all.add_argument("--output", default=None, help="write the report to a file")
    run_all.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write every report's rows as JSON to PATH",
    )
    run_all.set_defaults(handler=_run_experiments_run_all)


def _add_experiment(subparsers, name: str, help_text: str) -> None:
    experiment = subparsers.add_parser(
        name, parents=[_engine_options(), _observability_options()], help=help_text,
    )
    experiment.add_argument("experiment_id", choices=_experiment_ids())
    experiment.add_argument("--scale", choices=("small", "full"), default="small")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--shard", type=_shard_argument, default=None, metavar="i/K",
        help="run only jobs i, i+K, i+2K, ... of the compiled experiment, "
             "persisting full batch records to --results-dir (required); "
             "merged shard stores are byte-identical to an unsharded run's",
    )
    experiment.add_argument(
        "--merge", nargs="*", default=None, metavar="STORE",
        help="merge the given shard STOREs into --results-dir (required) and "
             "assemble the report purely from store records, executing "
             "nothing; with no STOREs, assemble from --results-dir as-is",
    )
    experiment.add_argument("--markdown", action="store_true", help="render as markdown")
    experiment.set_defaults(handler=_run_experiment_pipeline)


def _add_flood(subparsers, name: str, help_text: str) -> None:
    flood = subparsers.add_parser(name, help=help_text)
    flood_sub = flood.add_subparsers(dest="model", required=True)
    parents = [_engine_options(), _source_parent(), _observability_options()]

    edge_meg = flood_sub.add_parser(
        "edge-meg", parents=parents, help="classic edge-MEG with birth/death rates",
    )
    edge_meg.add_argument("--nodes", type=int, default=100)
    edge_meg.add_argument("--p", type=float, default=0.01, help="edge birth rate")
    edge_meg.add_argument("--q", type=float, default=0.5, help="edge death rate")
    edge_meg.add_argument("--trials", type=int, default=10)
    edge_meg.add_argument("--seed", type=int, default=0)

    waypoint = flood_sub.add_parser(
        "waypoint", parents=parents, help="random waypoint over a square",
    )
    waypoint.add_argument("--nodes", type=int, default=100)
    waypoint.add_argument("--side", type=float, default=10.0)
    waypoint.add_argument("--radius", type=float, default=1.0)
    waypoint.add_argument("--speed", type=float, default=1.0)
    waypoint.add_argument("--trials", type=int, default=5)
    waypoint.add_argument("--seed", type=int, default=0)

    grid_walk = flood_sub.add_parser(
        "grid-walk", parents=parents, help="random walks over a grid mobility graph",
    )
    grid_walk.add_argument("--nodes", type=int, default=64)
    grid_walk.add_argument("--grid-side", type=int, default=8)
    grid_walk.add_argument("--augment-k", type=int, default=1, help="k-augmentation of the grid")
    grid_walk.add_argument("--trials", type=int, default=5)
    grid_walk.add_argument("--seed", type=int, default=0)

    for model in (edge_meg, waypoint, grid_walk):
        model.set_defaults(handler=_run_flood)


def _add_sweep(subparsers, name: str, help_text: str) -> None:
    sweep = subparsers.add_parser(name, help=help_text)
    sweep_sub = sweep.add_subparsers(dest="family", required=True)
    sweep_common = argparse.ArgumentParser(add_help=False)
    sweep_common.add_argument(
        "--shard", type=_shard_argument, default=None, metavar="i/K",
        help="run only shard i of K: trials i, i+K, i+2K, ... of every sweep "
             "point, with the exact seeds the unsharded sweep would use",
    )
    adaptive_sweep = argparse.ArgumentParser(add_help=False)
    adaptive_sweep.add_argument(
        "--target-ci", type=float, default=None, metavar="W",
        help="adaptive sampling: stop each sweep point once the confidence "
             "interval around its mean is within ±W (--trials caps the "
             "budget; same seed => same realized trial count at any worker "
             "count)",
    )
    adaptive_sweep.add_argument(
        "--ci-confidence", type=float, default=0.95, metavar="C",
        help="confidence level of the stopping CI (default 0.95)",
    )
    adaptive_sweep.add_argument(
        "--min-trials", type=_positive_int, default=16, metavar="N",
        help="trials to run before the stopping rule may fire (default 16)",
    )
    adaptive_sweep.add_argument(
        "--check-every", type=_positive_int, default=16, metavar="N",
        help="evaluate the stopping rule every N trials (default 16)",
    )
    parents = [_engine_options(), _source_parent(), _sweep_points(), sweep_common,
               adaptive_sweep, _observability_options()]
    family_params = _family_parameters()
    for family in SWEEP_FAMILIES:
        sweep_sub.add_parser(
            family, parents=[*parents, family_params[family]], help=_FAMILY_HELP[family],
        ).set_defaults(handler=_run_sweep)


def _add_merge(subparsers, name: str, help_text: str) -> None:
    merge = subparsers.add_parser(name, help=help_text)
    merge.add_argument(
        "output",
        help="destination store: a .jsonl file or a directory (results.jsonl inside)",
    )
    merge.add_argument(
        "sources", nargs="+",
        help="source stores: .jsonl files or directories holding results.jsonl",
    )
    merge.set_defaults(handler=_run_merge)


def _add_worker(subparsers, name: str, help_text: str) -> None:
    worker = subparsers.add_parser(name, parents=[_observability_options()], help=help_text)
    worker.add_argument("--spool", required=True, help="shared spool directory")
    worker.add_argument(
        "--worker-id", default=None,
        help="identity recorded in lease metadata (default: hostname-pid)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.5, help="seconds between idle spool scans"
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help="seconds of heartbeat silence before a lease is presumed dead "
             "(default: the spool's persisted configuration)",
    )
    worker.add_argument(
        "--max-attempts", type=_positive_int, default=None, metavar="N",
        help="total execution attempts per job before it is marked failed "
             "(default: the spool's persisted configuration)",
    )
    worker.add_argument(
        "--max-jobs", type=_positive_int, default=None, metavar="N",
        help="exit after executing N jobs (worker recycling)",
    )
    worker.add_argument(
        "--exit-when-empty", action="store_true",
        help="exit once every job has reached a terminal state instead of "
             "polling forever",
    )
    worker.add_argument(
        "--profile", action="store_true",
        help="run each job under cProfile and write its top hotspots into "
             "the telemetry directory (needs --telemetry)",
    )
    worker.set_defaults(handler=_run_worker)


def _add_fleet(subparsers, name: str, help_text: str) -> None:
    from repro.fleet.top import DEFAULT_INTERVAL as TOP_DEFAULT_INTERVAL

    fleet = subparsers.add_parser(name, help=help_text)
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_options = argparse.ArgumentParser(add_help=False)
    fleet_options.add_argument(
        "--spool", required=True,
        help="spool directory (fresh per run; shared across machines for "
             "multi-machine fleets)",
    )
    fleet_options.add_argument(
        "--shards", type=_positive_int, required=True, metavar="K",
        help="number of shard jobs to compile the workload into",
    )
    fleet_options.add_argument(
        "--local-workers", type=int, default=0, metavar="N",
        help="drain-mode worker processes to spawn locally (0 = external "
             "fleet: run `repro worker --spool DIR` elsewhere)",
    )
    fleet_options.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help="seconds of heartbeat silence before a lease is requeued",
    )
    fleet_options.add_argument(
        "--max-attempts", type=_positive_int, default=None, metavar="N",
        help="total execution attempts per job before it is marked failed",
    )
    fleet_options.add_argument(
        "--poll", type=float, default=0.2, help="monitor seconds between spool scans"
    )
    fleet_options.add_argument(
        "--max-wait", type=float, default=None, metavar="S",
        help="abort (leaving the spool for inspection) after S seconds",
    )
    fleet_options.add_argument(
        "--profile", action="store_true",
        help="spawned local workers run each job under cProfile, writing "
             "hotspots into the telemetry directory (needs --telemetry)",
    )
    fleet_options.add_argument(
        "--resume", action="store_true",
        help="reuse a partially drained spool: keep completed jobs' verified "
             "results, re-enqueue failed or missing ones — instead of "
             "rejecting the workload's deterministic job ids as duplicates",
    )

    fleet_adaptive = argparse.ArgumentParser(add_help=False)
    fleet_adaptive.add_argument(
        "--target-ci", type=float, default=None, metavar="W",
        help="variance-aware sizing: run a local pilot round per sweep "
             "point, then shard a derived fixed budget sized so each CI "
             "half-width lands within ±W (--trials caps each budget)",
    )
    fleet_adaptive.add_argument(
        "--ci-confidence", type=float, default=0.95, metavar="C",
        help="confidence level of the sizing CI (default 0.95)",
    )
    fleet_adaptive.add_argument(
        "--pilot-trials", type=_positive_int, default=16, metavar="N",
        help="pilot trials per sweep point used to estimate variance "
             "(default 16; also the per-point budget floor)",
    )

    engine_options = _engine_options()
    observability_options = _observability_options()
    fleet_run = fleet_sub.add_parser(
        "run", help="compile, execute and fan in one workload"
    )
    fleet_run_sub = fleet_run.add_subparsers(dest="workload", required=True)
    fleet_sweep = fleet_run_sub.add_parser(
        "sweep", help="fleet-execute a node-count sweep of a model family"
    )
    fleet_sweep_sub = fleet_sweep.add_subparsers(dest="family", required=True)
    parents = [engine_options, _source_parent(), _sweep_points(), fleet_options,
               fleet_adaptive, observability_options]
    family_params = _family_parameters()
    for family in SWEEP_FAMILIES:
        fleet_sweep_sub.add_parser(
            family, parents=[*parents, family_params[family]], help=_FAMILY_HELP[family],
        ).set_defaults(handler=_run_fleet_run)
    fleet_experiment = fleet_run_sub.add_parser(
        "experiment", parents=[engine_options, fleet_options, observability_options],
        help="fleet-execute one registered experiment (E1-E10)",
    )
    fleet_experiment.add_argument("experiment_id", choices=_experiment_ids())
    fleet_experiment.add_argument("--scale", choices=("small", "full"), default="small")
    fleet_experiment.add_argument("--seed", type=int, default=0)
    fleet_experiment.add_argument(
        "--markdown", action="store_true", help="render the report as markdown"
    )
    fleet_experiment.set_defaults(handler=_run_fleet_run)

    fleet_status = fleet_sub.add_parser(
        "status",
        help="inspect a spool: progress, leases, heartbeats, failures, "
             "throughput metrics",
    )
    fleet_status.add_argument("spool", help="spool directory to inspect")
    fleet_status.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit the status snapshot (including jobs/s, requeue rate and "
             "the heartbeat-age distribution) as JSON on stdout",
    )
    fleet_status.set_defaults(handler=_run_fleet_status)

    fleet_top = fleet_sub.add_parser(
        "top",
        help="live dashboard over a draining spool: queue depths, per-worker "
             "utilization and heartbeat age, throughput, drain ETA, slowest "
             "in-flight jobs (refreshes until Ctrl-C)",
    )
    fleet_top.add_argument("spool", help="spool directory to watch")
    fleet_top.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="the fleet's shared telemetry directory: adds windowed "
             "throughput, latency quantiles, worker utilization and the "
             f"in-flight panel (default: the {TELEMETRY_ENV} variable)",
    )
    fleet_top.add_argument(
        "--interval", type=float, default=TOP_DEFAULT_INTERVAL, metavar="S",
        help=f"seconds between refreshes (default {TOP_DEFAULT_INTERVAL:g})",
    )
    fleet_top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    fleet_top.add_argument(
        "--until-drained", action="store_true",
        help="exit once every job has reached a terminal state",
    )
    fleet_top.add_argument(
        "--json", dest="as_json", action="store_true",
        help="with --once: print the frame's data as JSON instead of text",
    )
    fleet_top.add_argument(
        "--width", type=_positive_int, default=80, metavar="COLS",
        help="frame width in columns (default 80)",
    )
    fleet_top.set_defaults(handler=_run_fleet_top)


def _add_serve(subparsers, name: str, help_text: str) -> None:
    from repro.engine.engine import BACKENDS
    from repro.serve.service import DEFAULT_MAX_QUEUE

    serve = subparsers.add_parser(name, parents=[_observability_options()], help=help_text)
    serve.add_argument(
        "--spool", required=True,
        help="job spool cold requests are enqueued into (drain it with "
             "`repro worker --spool DIR` on any number of machines)",
    )
    serve.add_argument(
        "--results-dir", required=True,
        help="result store warm requests are answered from (and cold "
             "results merged into)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 = pick a free ephemeral port)",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=DEFAULT_MAX_QUEUE, metavar="N",
        help="maximum in-flight spool jobs before cold requests are refused "
             f"with 429 (default {DEFAULT_MAX_QUEUE})",
    )
    serve.add_argument(
        "--default-shards", type=_positive_int, default=1, metavar="K",
        help="shard jobs a cold request compiles into when the request "
             "carries no 'shards' hint (default 1)",
    )
    serve.add_argument(
        "--job-workers", type=_positive_int, default=1, metavar="N",
        help="engine worker processes each fleet job runs with",
    )
    serve.add_argument(
        "--job-backend", choices=BACKENDS, default="auto",
        help="flooding kernel each fleet job runs with",
    )
    serve.set_defaults(handler=_run_serve)


def _add_telemetry(subparsers, name: str, help_text: str) -> None:
    from repro.telemetry.timeseries import DEFAULT_WINDOW_SECONDS

    telemetry_cmd = subparsers.add_parser(name, help=help_text)
    telemetry_sub = telemetry_cmd.add_subparsers(dest="telemetry_command", required=True)
    telemetry_report_cmd = telemetry_sub.add_parser(
        "report",
        help="merge a telemetry directory's per-process event files into one "
             "run summary: phase breakdown, store hit rate, worker "
             "utilization, slowest jobs, requeue forensics",
    )
    telemetry_report_cmd.add_argument("directory", help="telemetry directory to merge")
    telemetry_report_cmd.add_argument(
        "--top", type=_positive_int, default=5, metavar="N",
        help="slowest jobs to list (default 5)",
    )
    telemetry_report_cmd.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the merged summary as JSON to PATH",
    )
    telemetry_report_cmd.set_defaults(handler=_run_telemetry_report)
    telemetry_trace_cmd = telemetry_sub.add_parser(
        "trace",
        help="reconstruct one propagated trace across processes: the span "
             "tree (serve request -> spool wait -> worker lease -> engine "
             "chunks) with critical-path timing; omit the id to list the "
             "traces a directory holds",
    )
    telemetry_trace_cmd.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id (from an X-Trace-Id response header, a ticket "
             "record, or `repro telemetry trace` with no id)",
    )
    telemetry_trace_cmd.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="telemetry directory holding the run's event files "
             f"(default: the {TELEMETRY_ENV} environment variable)",
    )
    telemetry_trace_cmd.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the reconstructed trace (or the trace list) as JSON",
    )
    telemetry_trace_cmd.set_defaults(handler=_run_telemetry_trace)
    telemetry_export_cmd = telemetry_sub.add_parser(
        "export",
        help="render a telemetry directory as Prometheus text exposition "
             "(counters, gauges, timing summaries, windowed jobs/s + "
             "latency quantiles + requeue rate, cache hit ratio)",
    )
    telemetry_export_cmd.add_argument(
        "--telemetry", dest="telemetry_dir", default=None, metavar="DIR",
        help="telemetry directory holding the run's event files "
             f"(default: the {TELEMETRY_ENV} environment variable)",
    )
    telemetry_export_cmd.add_argument(
        "--window", type=float, default=DEFAULT_WINDOW_SECONDS, metavar="S",
        help="sliding window for rates and latency quantiles "
             f"(default {DEFAULT_WINDOW_SECONDS:g}s)",
    )
    telemetry_export_cmd.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="byte-offset checkpoint file: resume tailing where the last "
             "export stopped instead of re-reading history, and save the "
             "new position on exit",
    )
    telemetry_export_cmd.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the exposition to PATH instead of stdout",
    )
    telemetry_export_cmd.add_argument(
        "--check", action="store_true",
        help="strictly validate the exposition before emitting it "
             "(exit 1 on malformed output; what CI's metrics smoke runs)",
    )
    telemetry_export_cmd.set_defaults(handler=_run_telemetry_export)


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

    def __init__(self, option_strings, dest, help=None):
        super().__init__(
            option_strings, dest=argparse.SUPPRESS, default=argparse.SUPPRESS, nargs=0,
            help=help,
        )

    def __call__(self, parser, namespace, values, option_string=None):
        from repro import __version__

        print(f"{parser.prog} {__version__}")
        parser.exit()


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with only ``command``'s subtree built.

    Every other subcommand is registered by name and help alone, which is
    all the top-level help, usage and "invalid choice" errors show.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Information Spreading in Dynamic Graphs' (PODC 2012)",
    )
    parser.add_argument(
        "--version", action=_VersionAction, help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text, builder in COMMANDS:
        if name == command:
            builder(subparsers, name, help_text)
        else:
            subparsers.add_parser(name, help=help_text)
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
    """Check the output paths before any trial runs; print why one fails."""
    problem = _output_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
    return problem is not None


def _build_engine(args: argparse.Namespace):
    """Engine configured from the shared --workers/--backend/--results-dir flags."""
    from repro.engine.engine import Engine
    from repro.engine.store import ResultStore

    store = None
    if getattr(args, "results_dir", None):
        store = ResultStore(args.results_dir)
    return Engine(
        workers=getattr(args, "workers", 1),
        backend=getattr(args, "backend", "auto"),
        executor=getattr(args, "executor", "process"),
        store=store,
        source_chunk=getattr(args, "source_chunk", None),
    )


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


def _run_experiments_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS

    for experiment_id in _experiment_ids():
        experiment = EXPERIMENTS[experiment_id]
        print(f"{experiment_id}: {experiment.title}  [{experiment.paper_reference}]")
    return 0


def _run_experiments_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment

    if _outputs_unusable(args):
        return 2
    report = run_experiment(args.experiment_id, scale=args.scale, seed=args.seed)
    print(_renderer(args)(report))
    if args.json_path:
        _write_json(args.json_path, report.as_dict())
    return 0


def _run_experiments_run_all(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment

    if _outputs_unusable(args):
        return 2
    renderer = _renderer(args)
    sections = []
    reports = []
    for experiment_id in _experiment_ids():
        report = run_experiment(experiment_id, scale=args.scale, seed=args.seed)
        reports.append(report)
        sections.append(renderer(report))
    output = "\n\n".join(sections)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
        print(f"wrote {args.output}")
    else:
        print(output)
    if args.json_path:
        _write_json(args.json_path, [report.as_dict() for report in reports])
    return 0


def _run_experiment_pipeline(args: argparse.Namespace) -> int:
    from repro.api import experiment_plan, experiment_request
    from repro.engine.store import MergeConflictError
    from repro.experiments.pipeline import (
        MissingRecordError,
        assemble_from_store,
        execute_plan,
    )

    renderer = _renderer(args)
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
    if _outputs_unusable(args):
        return 2
    engine = _build_engine(args)
    plan = experiment_plan(
        experiment_request(args.experiment_id, scale=args.scale, seed=args.seed)
    )

    if args.merge is not None:
        store = engine.store
        assert store is not None  # enforced above
        if args.merge:
            try:
                merge_report = store.merge(*args.merge)
            except (MergeConflictError, FileNotFoundError) as error:
                print(f"merge failed: {error}", file=sys.stderr)
                return 1
            print(
                f"merged {len(args.merge)} store(s) into {store.path} "
                f"({merge_report.records} records, {merge_report.adopted} adopted)"
            )
        try:
            report = assemble_from_store(plan, store)
        except MissingRecordError as error:
            print(f"assembly failed: {error}", file=sys.stderr)
            return 1
        print(renderer(report))
        if args.json_path:
            _write_json(args.json_path, report.as_dict())
        return 0

    run = execute_plan(plan, engine=engine, shard=args.shard)
    if args.shard is not None:
        index, count = args.shard
        print(
            f"experiment {plan.experiment_id} (scale={plan.scale}, seed={plan.seed}), "
            f"shard {index}/{count}: {len(run.batches)}/{len(plan.jobs)} jobs"
        )
        print(f"engine: workers={engine.workers}, backend={engine.backend}, "
              f"results-dir={args.results_dir}")
        for tag, batch in run.batches.items():
            print(
                f"  {tag:>16}  trials={batch.num_trials:>4}  mean {batch.mean:8.1f}"
                + ("  [cached]" if batch.from_cache else "")
            )
        if args.json_path:
            _write_json(
                args.json_path,
                {
                    "experiment_id": plan.experiment_id,
                    "scale": plan.scale,
                    "seed": plan.seed,
                    "shard": [index, count],
                    "jobs": [
                        {
                            "tag": tag,
                            "num_trials": batch.num_trials,
                            "flooding_times": list(batch.flooding_times),
                            "from_cache": batch.from_cache,
                        }
                        for tag, batch in run.batches.items()
                    ],
                },
            )
        return 0

    assert run.report is not None
    print(renderer(run.report))
    if run.num_cached:
        print(f"\n({run.num_cached}/{len(run.batches)} job(s) served from the result store)")
    if args.json_path:
        _write_json(args.json_path, run.report.as_dict())
    return 0


def _flood_params(args: argparse.Namespace) -> dict:
    """The chosen flood model's parameters as a request params mapping."""
    if args.model == "edge-meg":
        return {"nodes": args.nodes, "p": args.p, "q": args.q}
    if args.model == "waypoint":
        return {
            "nodes": args.nodes, "side": args.side, "radius": args.radius,
            "speed": args.speed,
        }
    return {
        "nodes": args.nodes, "grid_side": args.grid_side,
        "augment_k": args.augment_k,
    }


def _source_options(args: argparse.Namespace) -> tuple[Optional[str], Optional[int]]:
    """The (sources, num_sources) pair of the shared estimator flags."""
    if args.all_sources:
        return "all", None
    if args.source_sample is not None:
        return None, args.source_sample
    return None, None


def _run_flood(args: argparse.Namespace) -> int:
    from repro.api import RequestError, compile_request, estimator_description, flood_request
    from repro.core.bounds import (
        classic_edge_meg_bound,
        corollary6_bound,
        waypoint_flooding_bound,
    )
    from repro.util.stats import summarize

    if _outputs_unusable(args):
        return 2
    sources, num_sources = _source_options(args)
    try:
        plan = compile_request(
            flood_request(
                args.model, args.trials, seed=args.seed, sources=sources,
                num_sources=num_sources, params=_flood_params(args),
            )
        )
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
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
    estimator = estimator_description(sources, num_sources)
    samples = list(engine.run(spec).flooding_times)
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


def _sweep_factory_kwargs(args: argparse.Namespace) -> dict:
    """The chosen family's fixed parameters, as passed to its factory."""
    return {name: getattr(args, name) for name in SWEEP_FAMILY_DEFAULTS[args.family]}


def _sweep_stopping(args: argparse.Namespace):
    """The stopping rule a ``--target-ci`` sweep invocation asks for, or None."""
    if getattr(args, "target_ci", None) is None:
        return None
    from repro.stats.sequential import StoppingRule

    return StoppingRule(
        target_halfwidth=args.target_ci,
        confidence=args.ci_confidence,
        min_trials=args.min_trials,
        check_every=args.check_every,
    )


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.api import RequestError, compile_request, estimator_description, sweep_request
    from repro.experiments.runner import run_sweep_specs, sweep_as_dicts
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
    if _outputs_unusable(args):
        return 2
    engine = _build_engine(args)
    factory_kwargs = _sweep_factory_kwargs(args)
    sources, num_sources = _source_options(args)
    estimator = estimator_description(sources, num_sources)
    try:
        stopping = _sweep_stopping(args)
        plan = compile_request(
            sweep_request(
                args.family, args.nodes, args.trials, seed=args.seed,
                sources=sources, num_sources=num_sources, params=factory_kwargs,
                stopping=stopping,
            )
        )
    except (RequestError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    measurements = run_sweep_specs(
        [job.spec for job in plan.jobs], engine=engine, shard=args.shard
    )
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
        summary = measurement.summary
        line = (
            f"  n={measurement.parameter:>6}  trials={summary.count:>4}  "
            f"mean {summary.mean:8.1f}  median {summary.median:8.1f}  "
            f"max {summary.maximum:8.0f}"
        )
        if stopping is not None:
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
            "factory_kwargs": factory_kwargs,
            "engine": {"workers": engine.workers, "backend": engine.backend},
            "measurements": sweep_as_dicts(measurements),
        }
        if stopping is not None:
            # Emitted only on adaptive runs so fixed-count sweep JSON stays
            # byte-identical to every release before adaptive sampling.
            payload["stopping"] = stopping.as_dict()
        _write_json(args.json_path, payload)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    from repro.fleet.worker import run_worker

    telemetry_dir = _telemetry_dir(args)
    if args.profile and not telemetry_dir:
        print(
            "error: --profile needs a telemetry directory (--telemetry DIR or "
            f"{TELEMETRY_ENV}) to write the hotspot reports into",
            file=sys.stderr,
        )
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


def _fleet_engine_config(args: argparse.Namespace) -> dict:
    """The per-job engine configuration carried in fleet job descriptors."""
    return {
        "workers": args.workers,
        "backend": args.backend,
        "executor": args.executor,
        "source_chunk": args.source_chunk,
    }


def _run_fleet_run(args: argparse.Namespace) -> int:
    from repro.api import estimator_description, experiment_request, sweep_request
    from repro.engine.engine import Engine
    from repro.engine.store import MergeConflictError, ResultStore
    from repro.experiments.runner import sweep_as_dicts
    from repro.fleet.coordinator import (
        FleetError,
        assemble_experiment_report,
        merge_fleet_stores,
        plan_variance_budgets,
        run_fleet,
        sweep_results_from_store,
    )
    from repro.fleet.jobs import request_job_payloads
    from repro.fleet.queue import JobSpool

    if not args.results_dir:
        print(
            "error: fleet run needs --results-dir (the destination the job "
            "stores are merged into)",
            file=sys.stderr,
        )
        return 2
    try:
        sizing_report = None
        if args.workload == "sweep":
            request = sweep_request(
                args.family,
                args.nodes,
                args.trials,
                seed=args.seed,
                sources=_source_options(args)[0],
                num_sources=_source_options(args)[1],
                params=_sweep_factory_kwargs(args),
            )
            if args.target_ci is not None:
                # Variance-aware sizing: a store-less local pilot round per
                # sweep point, then the fleet shards the derived fixed
                # budgets through the normal byte-identical machinery.
                pilot_engine = Engine(
                    workers=args.workers,
                    backend=args.backend,
                    executor=args.executor,
                    source_chunk=args.source_chunk,
                )
                request, sizing_report = plan_variance_budgets(
                    request,
                    args.target_ci,
                    engine=pilot_engine,
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
        else:
            request = experiment_request(
                args.experiment_id, scale=args.scale, seed=args.seed
            )
        payloads = request_job_payloads(
            request, args.shards, engine=_fleet_engine_config(args)
        )
        telemetry_dir = _telemetry_dir(args)
        if args.profile and not telemetry_dir:
            print(
                "error: --profile needs a telemetry directory (--telemetry DIR "
                f"or {TELEMETRY_ENV}) to write the hotspot reports into",
                file=sys.stderr,
            )
            return 2
        spool = JobSpool(args.spool, lease_ttl=args.lease_ttl, max_attempts=args.max_attempts)
        outcome = run_fleet(
            spool,
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
        merge_report = merge_fleet_stores(spool, payloads, destination)
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
        measurements = sweep_results_from_store(payloads[0], destination)
        estimator = estimator_description(*_source_options(args))
        print(f"sweep:  {args.family} over n = {args.nodes}  ({args.shards} fleet shards)")
        print(f"estimator: {estimator} per realization")
        for measurement in measurements:
            summary = measurement.summary
            print(
                f"  n={measurement.parameter:>6}  trials={summary.count:>4}  "
                f"mean {summary.mean:8.1f}  median {summary.median:8.1f}  "
                f"max {summary.maximum:8.0f}"
            )
        if args.json_path:
            payload = {
                "family": args.family,
                "nodes": args.nodes,
                "trials": args.trials,
                "seed": args.seed,
                "shards": args.shards,
                "estimator": estimator,
                "factory_kwargs": _sweep_factory_kwargs(args),
                "measurements": sweep_as_dicts(measurements),
            }
            if sizing_report is not None:
                # Only adaptive runs carry the sizing block, so fixed-count
                # fleet JSON stays byte-identical to earlier releases.
                payload["sizing"] = sizing_report
            _write_json(args.json_path, payload)
        return 0

    report = assemble_experiment_report(payloads[0], destination)
    print(_renderer(args)(report))
    if args.json_path:
        _write_json(args.json_path, report.as_dict())
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # Top-level options take no value, so the first non-option token is the
    # subcommand (or a typo argparse reports as an invalid choice).
    command = next((token for token in argv if not token.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)

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

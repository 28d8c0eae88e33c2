"""The repository's benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload edge-meg-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each measured run launches the
workload in a fresh interpreter (``perfbench/workload.py``), so imports count
toward set-up; ``setup_s`` is the median of several such launches.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  A full record of every
run, with provenance, is written under ``.perfbench/results/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "repro")
OUTPUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("edge-meg-sweep", "waypoint-sweep", "serve-mixed")
#: interpreter launches whose set-up time is measured (median reported)
SETUP_RUNS = 3
#: seconds a child may take before it is killed
CHILD_TIMEOUT = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "hit_p50_ms": "ms",
    "hit_p95_ms": "ms",
    "revalidate_p50_ms": "ms",
    "fill_p50_ms": "ms",
    "ok_ratio": "ratio",
}

#: per-layer metrics of a traced run, with their units
LAYER_UNITS = {
    "import.repro_s": "s",
    "meg.init_s": "s",
    "meg.reset_s": "s",
    "meg.step_s": "s",
    "meg.step.calls": "count",
    "meg.snapshot_s": "s",
    "meg.snapshot.calls": "count",
    "mobility.reset_s": "s",
    "mobility.step_s": "s",
    "mobility.step.calls": "count",
    "mobility.snapshot_s": "s",
    "kernel.self_s": "s",
    "kernel.rounds": "count",
    "kernel.set.calls": "count",
    "kernel.vectorized.calls": "count",
    "kernel.sparse.calls": "count",
    "kernel.bitset.calls": "count",
    "kernel.batch.calls": "count",
    "kernel.sources.calls": "count",
    "engine.run.self_s": "s",
    "engine.run.calls": "count",
    "api.compile_s": "s",
    "api.key_s": "s",
    "api.keys_per_job": "ratio",
    "store.get_s": "s",
    "store.get.calls": "count",
    "store.put_s": "s",
    "store.merge_s": "s",
    "store.merge.calls": "count",
    "store.records": "count",
    "fleet.queue_s": "s",
    "fleet.execute.self_s": "s",
    "serve.submit.self_s": "s",
    "serve.poll.self_s": "s",
    "serve.assemble_s": "s",
    "serve.encode_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "gen.lateness_p50_ms": "ms",
    "gen.lateness_p95_ms": "ms",
}


class ChildFailed(RuntimeError):
    """A workload interpreter exited badly or never became ready."""


def launch(argv: list[str], timeout: float = CHILD_TIMEOUT) -> float:
    """Run one workload interpreter; returns seconds from launch to ``READY``."""
    env = dict(os.environ)
    # One process, one thread: no BLAS thread pools beside the load.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [sys.executable, os.path.join(HERE, "workload.py"), *argv]
    started = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(timeout, child.kill)
    watchdog.start()
    ready = None
    try:
        for line in child.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - started
                break
        child.communicate()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0 or ready is None:
        raise ChildFailed(f"workload exited with {child.returncode}: {' '.join(argv)}")
    return ready


def provenance(args: argparse.Namespace, versions: dict) -> dict:
    """Where a result came from: source, machine, toolchain and inputs."""
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    source = hashlib.sha256()
    for base in (SOURCE, HERE):
        for directory, subdirs, files in sorted(os.walk(base)):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(directory, name)
                    source.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        source.update(handle.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        **versions,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def measure(args: argparse.Namespace, work_dir: str) -> tuple[dict, dict, dict]:
    """Launch the workload; returns (child result, metrics, units)."""
    base = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    out = os.path.join(work_dir, "result.json")
    setups = []
    if not args.trace:
        for index in range(SETUP_RUNS - 1):
            scratch = os.path.join(work_dir, f"setup-{index}")
            setups.append(launch([*base, "--work-dir", scratch, "--setup-only"]))
            shutil.rmtree(scratch, ignore_errors=True)
    setups.append(launch([*base, "--work-dir", os.path.join(work_dir, "run"), "--out", out]))
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_samples_s"] = setups
    metrics = dict(result["metrics"])
    units = LAYER_UNITS if args.trace else E2E_UNITS
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["ok_ratio"] = 1.0 - result["failed"] / result["attempted"]
    missing = set(units) - set(metrics)
    if missing:
        raise ChildFailed(f"workload result lacks {sorted(missing)}")
    return result, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    # Build: byte-compile the program once, so no run pays for it in set-up.
    compileall.compile_dir(SOURCE, quiet=1)

    work_dir = os.path.join(OUTPUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result, metrics, units = measure(args, work_dir)
    except (ChildFailed, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "provenance": provenance(args, result.get("versions", {})),
        "metrics": metrics,
        "run": result,
    }
    results_dir = os.path.join(OUTPUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:>24}  {metrics[name]!r} {units[name]}")
    print(f"record {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

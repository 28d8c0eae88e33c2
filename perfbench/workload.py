"""One benchmark workload, measured in this (fresh) interpreter.

``perfbench/run.py`` launches this script once per measured run and, for the
set-up metric, a few more times with ``--setup-only``.  The protocol: import
the program, build the workload's state, print ``READY`` on stdout (the
parent's set-up clock stops at that line), then measure and write a JSON
result to ``--out``.  Everything runs in this one process and thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import (  # noqa: E402
    Sample,
    gauge,
    gauge_floor,
    make_schedule,
    percentile,
    run_open_loop,
    sweep_output_ok,
    tail_percentile,
)
from tracer import Tracer  # noqa: E402

_started = time.perf_counter()
import repro.cli  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _started

# ---------------------------------------------------------------------- #
# workload definitions
# ---------------------------------------------------------------------- #
#: family and CLI flags of each sweep workload
SWEEPS = {
    "edge-meg-sweep": ("edge-meg", ["--nodes", "256,512,1024", "--avg-degree", "1.0"]),
    "waypoint-sweep": (
        "waypoint", ["--nodes", "128,256,512", "--side", "12", "--radius", "1.0"],
    ),
}
SWEEP_POINTS = 3
SWEEP_TRIALS = 24
#: warm re-runs (store hits) after each cold sweep: a run of about 20
#: journeys gives some 600 hits, so their p95 has 30 samples beyond it
WARM_RERUNS = 30
#: summary-only re-runs after the warm ones (revalidations)
SUMMARY_RERUNS = 5
#: sweep seeds whose outputs have pinned digests (``digests.json``)
DIGEST_SEEDS = 64
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: serve-mixed: the warm pool's trial counts and node counts (one point per
#: request, paired by a per-seed shuffle), the exact request mix and the cold
#: requests' shape.  Five of eight pool entries share one trial count, so the
#: median hit sits inside one cost class on every seed.
POOL_TRIALS = (256, 256, 1024, 1024, 1024, 1024, 1024, 4096)
POOL_NODES = (16, 32, 64)
MIX = {"hit": 210, "revalidate": 60, "cold": 30}
COLD_NODES = (16, 32)
COLD_TRIALS = 64
WORKER = "perfbench"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
    }


# ---------------------------------------------------------------------- #
# layer tracing
# ---------------------------------------------------------------------- #
def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public functions (see README.md for the map)."""
    from repro import api
    from repro.engine import engine as engine_module
    from repro.engine import shard
    from repro.engine.store import ResultStore
    from repro.fleet import jobs
    from repro.fleet.queue import JobSpool
    from repro.meg.base import DynamicGraph
    from repro.meg.edge_meg import EdgeMEG
    from repro.mobility.random_trip import RandomTrip
    from repro.serve.service import SimulationService
    from repro.util import rng

    modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "repro"
    ]
    for name, layer in (
        ("__init__", "meg.init"), ("reset", "meg.reset"), ("step", "meg.step"),
        ("adjacency_matrix", "meg.snapshot"),
    ):
        tracer.patch(EdgeMEG, name, layer)
    # EdgeMEG inherits the CSR snapshot; wrapping it on the base class keeps
    # the kernels' "is it overridden" checks answering as before.
    tracer.patch(
        DynamicGraph, "sparse_adjacency", "meg.snapshot",
        when=lambda model: isinstance(model, EdgeMEG),
    )
    for name, layer in (
        ("reset", "mobility.reset"), ("step", "mobility.step"),
        ("adjacency_matrix", "mobility.snapshot"),
        ("sparse_adjacency", "mobility.snapshot"), ("edge_pairs", "mobility.snapshot"),
    ):
        tracer.patch(RandomTrip, name, layer)

    def kernel_done(backend):
        def after(result):
            tracer.count(f"kernel.{backend}.calls")
            if backend == "batch":
                tracer.count("kernel.rounds", sum(r.flooding_time or 0 for r in result))
            elif backend == "sources":
                tracer.count("kernel.rounds", max((t or 0 for t in result), default=0))
            else:
                tracer.count("kernel.rounds", result.flooding_time or 0)
        return after

    for backend in list(engine_module._KERNELS):
        tracer.patch(engine_module._KERNELS, backend, "kernel", after=kernel_done(backend))
    tracer.patch(engine_module, "flood_trials_batch", "kernel", after=kernel_done("batch"))
    for name in ("flood_sources_batch", "flood_sources_set"):
        tracer.patch(engine_module, name, "kernel", after=kernel_done("sources"))
    tracer.patch(engine_module.Engine, "run", "engine.run")
    tracer.patch(engine_module.Engine, "run_shard", "engine.run")

    def trace_assemble(plan):
        object.__setattr__(plan, "assemble", tracer.wrap("serve.assemble", plan.assemble))

    tracer.patch_everywhere(modules, api.compile_request, "api.compile", after=trace_assemble)
    tracer.patch_everywhere(modules, rng.spawn_seed_sequences, "api.key")
    tracer.patch_everywhere(modules, shard.seed_token, "api.key")
    tracer.patch(
        ResultStore, "compute_key", "api.key", after=lambda _: tracer.count("api.keys")
    )
    for name in ("get", "put", "merge"):
        tracer.patch(ResultStore, name, f"store.{name}")
    for name in ("enqueue", "claim", "mark_done"):
        tracer.patch(JobSpool, name, "fleet.queue")
    tracer.patch_everywhere(modules, jobs.execute_job, "fleet.execute")
    tracer.patch(SimulationService, "submit", "serve.submit")
    tracer.patch(SimulationService, "poll", "serve.poll")


def layer_metrics(tracer: Tracer, units: float, records: int) -> dict:
    """Per-layer totals divided by ``units`` (journeys, or one request batch)."""
    seconds, calls, counts = tracer.self_seconds, tracer.calls, tracer.counts
    jobs = counts["jobs.answered"]
    values = {
        "meg.init_s": seconds["meg.init"],
        "meg.reset_s": seconds["meg.reset"],
        "meg.step_s": seconds["meg.step"],
        "meg.step.calls": calls["meg.step"],
        "meg.snapshot_s": seconds["meg.snapshot"],
        "meg.snapshot.calls": calls["meg.snapshot"],
        "mobility.reset_s": seconds["mobility.reset"],
        "mobility.step_s": seconds["mobility.step"],
        "mobility.step.calls": calls["mobility.step"],
        "mobility.snapshot_s": seconds["mobility.snapshot"],
        "kernel.self_s": seconds["kernel"],
        "kernel.rounds": counts["kernel.rounds"],
        "engine.run.self_s": seconds["engine.run"],
        "engine.run.calls": calls["engine.run"],
        "api.compile_s": seconds["api.compile"],
        "api.key_s": seconds["api.key"],
        "store.get_s": seconds["store.get"],
        "store.get.calls": calls["store.get"],
        "store.put_s": seconds["store.put"],
        "store.merge_s": seconds["store.merge"],
        "store.merge.calls": calls["store.merge"],
        "fleet.queue_s": seconds["fleet.queue"],
        "fleet.execute.self_s": seconds["fleet.execute"],
        "serve.submit.self_s": seconds["serve.submit"],
        "serve.poll.self_s": seconds["serve.poll"],
        "serve.assemble_s": seconds["serve.assemble"],
        "serve.encode_s": seconds["serve.encode"],
    }
    for backend in ("set", "vectorized", "sparse", "bitset", "batch", "sources"):
        values[f"kernel.{backend}.calls"] = counts[f"kernel.{backend}.calls"]
    values = {name: value / units for name, value in values.items()}
    # Ratios and sizes are not per unit.
    values["api.keys_per_job"] = counts["api.keys"] / jobs if jobs else 0.0
    values["store.records"] = records
    values["import.repro_s"] = IMPORT_SECONDS
    return values


# ---------------------------------------------------------------------- #
# sweep workloads
# ---------------------------------------------------------------------- #
def sweep_argv(workload: str, sweep_seed: int, results_dir: str, json_path=None) -> list:
    family, flags = SWEEPS[workload]
    argv = [
        "sweep", family, *flags, "--trials", str(SWEEP_TRIALS), "--seed", str(sweep_seed),
        "--workers", "1", "--results-dir", results_dir,
    ]
    if json_path is not None:
        argv += ["--json", json_path]
    return argv


def run_cli(argv: list) -> tuple[int, str, Sample]:
    """``repro.cli.main(argv)``: exit code, captured stdout, the timed sample.

    The previous call's garbage is collected first, untimed, so each call
    starts from the heap a fresh ``repro`` process would have after imports
    and pays only for collections its own allocations trigger.  The host
    speed is gauged right before and right after the timed call.
    """
    gc.collect()
    captured = io.StringIO()
    before = gauge()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = repro.cli.main(argv)
    seconds = time.perf_counter() - started
    return code, captured.getvalue(), Sample(seconds, before, gauge())


def timing_metrics(samples: dict) -> tuple[dict, dict]:
    """The run's fill, hit and revalidation timings: reported, and as measured.

    ``samples`` maps ``fill``, ``hit`` and ``revalidate`` to lists of
    :class:`Sample`.  Hits and revalidations are reported at the run's full
    host speed.  Fills are reported as measured: a cold sweep lasts longer
    than a slow spell, so readings at its ends do not tell how much of it
    ran slow, and a serve fill waits on the disk, which the gauge does not see.
    """
    floor = gauge_floor(samples["hit"] + samples["revalidate"])

    def summary(full_speed: bool) -> dict:
        def seconds(kind: str) -> list:
            return [s.at_full_speed(floor) if full_speed else s.seconds for s in samples[kind]]

        hits = seconds("hit")
        return {
            "fill_p50_ms": statistics.median(s.seconds for s in samples["fill"]) * 1e3,
            "hit_p50_ms": statistics.median(hits) * 1e3,
            "hit_p95_ms": percentile(hits, tail_percentile(len(hits)) or 50.0) * 1e3,
            "revalidate_p50_ms": statistics.median(seconds("revalidate")) * 1e3,
        }

    return summary(True), summary(False)


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


class SweepWorkload:
    """Journeys of one sweep: a cold run, warm re-runs, summary-only re-runs.

    * cold: ``repro sweep ... --results-dir <fresh> --json out`` — computes
      every point and fills the store (``wall_s``, ``fill_p50_ms``);
    * warm: the same command again into the filled store — every point is
      a store hit (``hit_p50_ms``, ``hit_p95_ms``);
    * summary-only: the same without ``--json`` — it only confirms the
      stored results (``revalidate_p50_ms``).
    """

    def __init__(self, workload: str, seed: int, work_dir: str) -> None:
        self.workload = workload
        self.work_dir = work_dir
        with open(DIGESTS_PATH, encoding="utf-8") as handle:
            self.digests = json.load(handle)[workload]
        self.order = list(range(DIGEST_SEEDS))
        random.Random(seed).shuffle(self.order)
        self.samples = {"fill": [], "hit": [], "revalidate": []}
        self.attempted = self.failed = 0
        # Import-time objects never die; keeping them out of collections makes
        # the collection before each call cheap (see run_cli).
        gc.freeze()

    def _record(self, kind: str, sample: Sample, ok: bool) -> None:
        self.samples[kind].append(sample)
        self.attempted += 1
        self.failed += 0 if ok else 1

    def journey(self, index: int, tracer=None) -> tuple[float, float]:
        """Run one journey; returns (cold-sweep seconds, covered seconds of it)."""
        sweep_seed = self.order[index % len(self.order)]
        expected = self.digests[str(sweep_seed)]
        directory = os.path.join(self.work_dir, f"journey-{index}")
        os.makedirs(directory)
        try:
            cold_json = os.path.join(directory, "cold.json")
            covered = tracer.covered_seconds if tracer else 0.0
            code, _, cold = run_cli(sweep_argv(self.workload, sweep_seed, directory, cold_json))
            covered = (tracer.covered_seconds if tracer else 0.0) - covered
            self._record(
                "fill", cold, code == 0 and sweep_output_ok(read_text(cold_json), expected)
            )
            for rerun in range(WARM_RERUNS):
                # A fresh file each time: rewriting a just-written file makes
                # ext4 flush it first, which would swamp the re-run's own cost.
                warm_json = os.path.join(directory, f"warm-{rerun}.json")
                code, _, sample = run_cli(
                    sweep_argv(self.workload, sweep_seed, directory, warm_json)
                )
                text = read_text(warm_json)
                cached = text.count('"from_cache": true') == SWEEP_POINTS
                self._record(
                    "hit", sample, code == 0 and cached and sweep_output_ok(text, expected)
                )
            for _ in range(SUMMARY_RERUNS):
                code, out, sample = run_cli(sweep_argv(self.workload, sweep_seed, directory))
                self._record(
                    "revalidate", sample, code == 0 and out.count("[cached]") == SWEEP_POINTS
                )
            if tracer is not None:
                tracer.count("jobs.answered", SWEEP_POINTS * (1 + WARM_RERUNS + SUMMARY_RERUNS))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return cold.seconds, covered

    def measure(self, seconds: float) -> dict:
        deadline = time.perf_counter() + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            self.journey(index)
            index += 1
        metrics, measured = timing_metrics(self.samples)
        metrics["wall_s"] = metrics["fill_p50_ms"] / 1e3
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "journeys": index,
            "tail_percentile": tail_percentile(len(self.samples["hit"])),
            "samples": {kind: len(values) for kind, values in self.samples.items()},
            "measured_metrics": measured,
            "metrics": metrics,
        }

    def trace(self, seconds: float) -> dict:
        """Alternate untraced and traced journeys; layers come from the traced."""
        tracer = Tracer()
        deadline = time.perf_counter() + seconds
        walls = {False: [], True: []}
        covered = 0.0
        index = 0
        while index < 2 or time.perf_counter() < deadline:
            traced = index % 2 == 1
            if traced:
                install_layers(tracer)
            try:
                wall, cold_covered = self.journey(index, tracer if traced else None)
            finally:
                tracer.uninstall()
            walls[traced].append(wall)
            covered += cold_covered if traced else 0.0
            index += 1
        traced_journeys = len(walls[True])
        metrics = layer_metrics(tracer, traced_journeys, records=SWEEP_POINTS)
        metrics["trace.coverage"] = covered / sum(walls[True])
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        metrics["gen.lateness_p50_ms"] = metrics["gen.lateness_p95_ms"] = 0.0
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "journeys": index,
            "traced_journeys": traced_journeys,
            "metrics": metrics,
        }


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #
class ServeWorkload:
    """An open loop of warm hits, conditional 304s and cold fills, in-process."""

    def __init__(self, seed: int, work_dir: str, seconds: float) -> None:
        from repro.engine.store import jsonify
        from repro.fleet import jobs

        self._jsonify = jsonify
        self._jobs = jobs
        self.work_dir = work_dir
        rng = random.Random(seed)
        trials = list(POOL_TRIALS)
        rng.shuffle(trials)
        self.pool = [
            self._body(POOL_NODES[index % len(POOL_NODES)], count, rng.randrange(1 << 30))
            for index, count in enumerate(trials)
        ]
        self.colds = [
            self._body(
                COLD_NODES[index % len(COLD_NODES)], COLD_TRIALS,
                (1 << 30) + rng.randrange(1 << 30),
            )
            for index in range(MIX["cold"])
        ]
        self.schedule = make_schedule(seed, MIX, len(self.pool), seconds)
        self.tracer = None
        self.passes = 0

    @staticmethod
    def _body(nodes, trials, seed) -> dict:
        return {"kind": "sweep", "family": "edge-meg", "nodes": [nodes],
                "trials": trials, "seed": seed}

    def setup(self) -> None:
        """A fresh store, spool and service, with the warm pool primed cold."""
        from repro.engine import ResultStore
        from repro.fleet.queue import JobSpool
        from repro.serve.service import SimulationService

        root = os.path.join(self.work_dir, f"pass-{self.passes}")
        self.passes += 1
        self.spool = JobSpool(os.path.join(root, "spool"))
        self.service = SimulationService(
            ResultStore(os.path.join(root, "store")), self.spool,
            engine_config={"workers": 1},
        )
        self.etags, self.pool_bytes = [], []
        for body in self.pool:
            answer = self.fill(body)
            if answer is None:
                raise RuntimeError(f"priming the warm pool failed for {body}")
            self.etags.append(answer.headers["ETag"])
            self.pool_bytes.append(self.encode(answer.payload))

    def encode(self, payload: dict) -> bytes:
        """The response body bytes, as the HTTP adapter writes them."""
        traced = self.tracer.span("serve.encode") if self.tracer else contextlib.nullcontext()
        with traced:
            text = json.dumps(self._jsonify(payload), indent=2, sort_keys=True) + "\n"
            return text.encode("utf-8")

    def fill(self, body: dict):
        """Cold path: submit, drain the spool in-line, poll to the 200 fill."""
        accepted = self.service.submit(dict(body))
        if accepted.status != 202:
            return None
        while (job := self.spool.claim(WORKER)) is not None:
            outcome = self._jobs.execute_job(job.payload, self.spool)
            self.spool.mark_done(job.id, outcome)
        answer = self.service.poll(accepted.payload["ticket"])
        if answer.status != 200 or answer.headers.get("X-Cache") != "fill":
            return None
        return answer

    def loop(self) -> dict:
        """Run the schedule once; returns timings, gauge readings and outcomes.

        The host speed is gauged before the first request and after each
        answer, so readings ``i`` and ``i + 1`` bracket request ``i``.
        """
        outcomes, cold_bytes, readings = [], {}, [gauge()]

        def handle(index: int) -> None:
            request = self.schedule[index]
            target = request.target
            if request.kind == "hit":
                answer = self.service.submit(dict(self.pool[target]))
                ok = (
                    answer.status == 200 and answer.headers.get("X-Cache") == "hit"
                    and self.encode(answer.payload) == self.pool_bytes[target]
                )
            elif request.kind == "revalidate":
                answer = self.service.submit(
                    dict(self.pool[target]), if_none_match=self.etags[target]
                )
                ok = answer.status == 304
            else:
                answer = self.fill(self.colds[target])
                ok = answer is not None
                if ok:
                    cold_bytes[target] = self.encode(answer.payload)
            if self.tracer is not None:
                self.tracer.count("jobs.answered")
            outcomes.append(ok)

        timings = run_open_loop(
            [request.offset for request in self.schedule], handle,
            between=lambda: readings.append(gauge()),
        )
        return {
            "timings": timings, "readings": readings, "outcomes": outcomes,
            "cold_bytes": cold_bytes,
        }

    def direct_check(self, cold_bytes: dict) -> bool:
        """The first cold answer must equal a direct Engine run of its plan."""
        from repro.api import WorkRequest, compile_request
        from repro.engine import Engine

        plan = compile_request(WorkRequest.from_dict(self.colds[0]))
        engine = Engine(workers=1)
        records = {job.tag: engine.run(job.spec).as_dict() for job in plan.jobs}
        return self.encode(plan.assemble(records)) == cold_bytes.get(0)

    def summarize(self, result: dict) -> dict:
        timings, outcomes = result["timings"], list(result["outcomes"])
        readings = result["readings"]
        outcomes[self._first_cold()] &= self.direct_check(result["cold_bytes"])
        by_kind = {"hit": [], "revalidate": [], "fill": []}
        for index, (request, timing) in enumerate(zip(self.schedule, timings)):
            kind = "fill" if request.kind == "cold" else request.kind
            by_kind[kind].append(Sample(timing.latency, readings[index], readings[index + 1]))
        metrics, measured = timing_metrics(by_kind)
        metrics["wall_s"] = timings[-1].done - timings[0].due
        lateness = [timing.lateness for timing in timings]
        return {
            "requests": len(timings),
            "attempted": len(outcomes),
            "failed": outcomes.count(False),
            "tail_percentile": tail_percentile(len(by_kind["hit"])),
            "busy_s": sum(timing.busy for timing in timings),
            "lateness_p50_ms": percentile(lateness, 50) * 1e3,
            "lateness_p95_ms": percentile(lateness, 95) * 1e3,
            "measured_metrics": measured,
            "metrics": metrics,
        }

    def _first_cold(self) -> int:
        return next(
            index for index, request in enumerate(self.schedule)
            if request.kind == "cold" and request.target == 0
        )

    def measure(self, seconds: float) -> dict:
        """One pass of the schedule (built for ``seconds`` already)."""
        summary = self.summarize(self.loop())
        summary["store_records"] = len(self.service.store)
        return summary

    def trace(self, seconds: float) -> dict:
        """An untraced pass, then the same schedule traced on a fresh service."""
        untraced = self.summarize(self.loop())
        self.setup()
        tracer = Tracer()
        install_layers(tracer)
        self.tracer = tracer
        try:
            result = self.loop()
        finally:
            self.tracer = None
            tracer.uninstall()
        traced = self.summarize(result)
        metrics = layer_metrics(tracer, 1, records=len(self.service.store))
        metrics["trace.coverage"] = tracer.covered_seconds / traced["busy_s"]
        metrics["trace.overhead_s"] = traced["busy_s"] - untraced["busy_s"]
        metrics["gen.lateness_p50_ms"] = untraced["lateness_p50_ms"]
        metrics["gen.lateness_p95_ms"] = untraced["lateness_p95_ms"]
        return {
            "attempted": traced["attempted"] + untraced["attempted"],
            "failed": traced["failed"] + untraced["failed"],
            "untraced": {k: v for k, v in untraced.items() if k != "metrics"},
            "traced": {k: v for k, v in traced.items() if k != "metrics"},
            "metrics": metrics,
        }


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*SWEEPS, "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "serve-mixed":
        workload = ServeWorkload(args.seed, args.work_dir, args.seconds)
        workload.setup()
    else:
        workload = SweepWorkload(args.workload, args.seed, args.work_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = workload.trace(args.seconds) if args.trace else workload.measure(args.seconds)
    result["peak_rss_mb"] = peak_rss_mb()
    result["import_s"] = IMPORT_SECONDS
    result["versions"] = versions()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

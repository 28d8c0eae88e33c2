"""Engine benchmark — fast-path kernels vs the set-based loop, plus caching.

The acceptance bar for the engine fast paths:

* on a 256-node edge-MEG the vectorized flooding kernel must produce
  *bit-identical* samples to the set-based loop on shared seeds while running
  measurably faster, and the engine must return bit-identical samples at any
  worker count;
* a node-MEG flooding sweep and a mobility-model flooding sweep at
  ``n >= 256`` must run at least 5x faster through the fast path than
  through the set-based loop, with exact agreement;
* the sparse CSR kernel must beat the dense kernel on a sparse
  ``n >= 2048`` snapshot, again with exact agreement;
* the realization-batch kernel must beat per-trial execution at least 3x on
  a wide node-MEG batch, with exact agreement, and ``backend="auto"`` must
  route that shape to it;
* the result store must serve identical re-runs from cache.

Run under pytest for the assertions, or execute the module directly to write
a machine-readable ``BENCH_engine.json`` for the CI perf-trajectory artifact::

    python benchmarks/bench_engine.py --output BENCH_engine.json [--quick]
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import networkx as nx

from bench_utils import run_once

from repro.engine import (
    Engine,
    ResultStore,
    StoppingRule,
    TrialSpec,
    resolve_backend,
)
from repro.util.stats import halfwidth, summarize
from repro.telemetry import core as telemetry
from repro.telemetry import trace as tracectx
from repro.graphs.grid import grid_graph
from repro.markov.builders import random_walk_on_graph
from repro.meg.base import DynamicGraph, StaticGraphProcess
from repro.meg.edge_meg import EdgeMEG
from repro.meg.node_meg import NodeMEG
from repro.mobility.random_walk import RandomWalkMobility

NODES = 256
TRIALS = 40
SEED = 0


def _spec() -> TrialSpec:
    model = EdgeMEG(NODES, p=4.0 / NODES, q=0.5)
    return TrialSpec.from_model(model, num_trials=TRIALS, seed=SEED)


def _node_meg(num_nodes: int) -> NodeMEG:
    chain = random_walk_on_graph(grid_graph(4)).lazy(0.3)
    return NodeMEG(
        num_nodes,
        chain,
        lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1,
    )


def _mobility(num_nodes: int) -> RandomWalkMobility:
    # The representative geometric model of the paper's introduction, in the
    # sparse regime (grid side ~ sqrt(n), constant radius).
    grid_side = max(2, int(round(num_nodes**0.5)))
    return RandomWalkMobility(num_nodes, grid_side=grid_side, radius=1.5)


class _FrozenSnapshot(StaticGraphProcess):
    """Static process with precomputed dense/CSR adjacency.

    Removes snapshot-construction costs entirely, so the sparse-vs-dense
    comparison measures the kernels alone.
    """

    def __init__(self, graph: nx.Graph) -> None:
        super().__init__(graph)
        self._dense = DynamicGraph.adjacency_matrix(self)
        self._sparse = DynamicGraph.sparse_adjacency(self)

    def adjacency_matrix(self):
        return self._dense

    def sparse_adjacency(self):
        return self._sparse


def _sparse_snapshot(num_nodes: int) -> _FrozenSnapshot:
    graph = nx.gnm_random_graph(num_nodes, 3 * num_nodes, seed=7)
    graph.add_edges_from(nx.path_graph(num_nodes).edges())  # keep connected
    return _FrozenSnapshot(graph)


def _batch_node_meg(num_nodes: int) -> NodeMEG:
    # The realization-batch regime: a small node-MEG (4-state chain) whose
    # per-trial rounds are dominated by Python dispatch, not NumPy work.
    chain = random_walk_on_graph(grid_graph(2)).lazy(0.3)
    return NodeMEG(
        num_nodes,
        chain,
        lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1,
    )


def _best_time(engine: Engine, spec: TrialSpec, repeats: int = 3) -> tuple[float, tuple]:
    best = float("inf")
    samples = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = engine.run(spec)
        best = min(best, time.perf_counter() - started)
        samples = result.flooding_times
    return best, samples


def _compare_backends(
    spec_factory, backends: tuple[str, ...], repeats: int = 3
) -> dict[str, float]:
    """Best wall-clock per backend; asserts bit-identical samples throughout."""
    timings: dict[str, float] = {}
    reference = None
    for backend in backends:
        elapsed, samples = _best_time(
            Engine(backend=backend), spec_factory(), repeats=repeats
        )
        timings[backend] = elapsed
        if reference is None:
            reference = samples
        else:
            assert samples == reference, f"{backend} kernel diverged from {backends[0]}"
    return timings


def test_engine_vectorized_kernel_speedup(benchmark):
    set_time, set_samples = _best_time(Engine(backend="set"), _spec())
    vec_time, vec_samples = run_once(
        benchmark, _best_time, Engine(backend="vectorized"), _spec()
    )
    print()
    print(f"set-based loop:     {set_time * 1e3:8.1f} ms")
    print(f"vectorized kernel:  {vec_time * 1e3:8.1f} ms  "
          f"(speedup x{set_time / vec_time:.2f})")

    # Identical samples on shared seeds, and a measurable speedup.
    assert vec_samples == set_samples
    assert vec_time < set_time


def test_node_meg_fast_path_speedup():
    # The set-based loop rebuilds the n x n adjacency cache every step; the
    # fast path floods through the state-level reach mask and never touches
    # the matrix.  Acceptance: >= 5x at n >= 256 with exact agreement.
    def spec() -> TrialSpec:
        return TrialSpec.from_model(_node_meg(512), num_trials=8, seed=3)

    timings = _compare_backends(spec, ("set", "auto"))
    speedup = timings["set"] / timings["auto"]
    print()
    print(f"node-MEG n=512:  set {timings['set'] * 1e3:8.1f} ms   "
          f"fast path {timings['auto'] * 1e3:8.1f} ms   (speedup x{speedup:.1f})")
    assert speedup >= 5.0


def test_mobility_batched_sweep_speedup():
    # Batched-source worst-case sweep on the random-walk mobility model: the
    # fast path floods all sampled sources of a realization in one matrix
    # pass per step (shared snapshot work), the set-based loop pays the
    # per-source Python unions.  Acceptance: >= 5x at n >= 256.
    def spec() -> TrialSpec:
        return TrialSpec.from_model(
            _mobility(512), num_trials=2, num_sources=16, seed=1
        )

    timings = _compare_backends(spec, ("set", "auto"), repeats=3)
    speedup = timings["set"] / timings["auto"]
    print()
    print(f"mobility n=512 (16-source batch):  set {timings['set'] * 1e3:8.1f} ms   "
          f"fast path {timings['auto'] * 1e3:8.1f} ms   (speedup x{speedup:.1f})")
    assert speedup >= 5.0


def test_sparse_kernel_beats_dense_on_sparse_snapshot():
    # On a large sparse snapshot the CSR matvec does O(m) work per step
    # where the dense kernel touches the n x n matrix.  Acceptance: sparse
    # faster than dense at n >= 2048 with exact agreement (set included).
    def spec() -> TrialSpec:
        return TrialSpec.from_model(_sparse_snapshot(4096), num_trials=3, seed=0)

    timings = _compare_backends(spec, ("set", "vectorized", "sparse"), repeats=2)
    print()
    print(f"sparse snapshot n=4096:  set {timings['set'] * 1e3:8.1f} ms   "
          f"dense {timings['vectorized'] * 1e3:8.1f} ms   "
          f"sparse {timings['sparse'] * 1e3:8.1f} ms   "
          f"(sparse vs dense x{timings['vectorized'] / timings['sparse']:.1f})")
    assert timings["sparse"] < timings["vectorized"]


def test_realization_batch_speedup():
    # Flooding 512 trials of one small node-MEG as lock-step tensor rounds
    # vs one kernel call per trial.  Acceptance: >= 3x with exact agreement,
    # and backend="auto" must route this shape to the batch kernel (the
    # heuristic never selects a slower kernel on benched shapes).
    model = _batch_node_meg(48)

    def spec() -> TrialSpec:
        return TrialSpec.from_model(model, num_trials=512, seed=3)

    assert resolve_backend("auto", model, num_trials=512) == "batch"
    timings = _compare_backends(spec, ("vectorized", "batch"), repeats=3)
    speedup = timings["vectorized"] / timings["batch"]
    print()
    print(f"node-MEG n=48, 512 trials:  per-trial {timings['vectorized'] * 1e3:8.1f} ms   "
          f"batched {timings['batch'] * 1e3:8.1f} ms   (speedup x{speedup:.1f})")
    assert speedup >= 3.0


def test_engine_worker_count_invariance():
    serial = Engine(workers=1).run(_spec())
    parallel = Engine(workers=4).run(_spec())
    assert serial.flooding_times == parallel.flooding_times


def test_engine_executor_invariance_and_startup():
    """Thread and process pools agree bit-for-bit; report their overheads.

    The timing print tracks pool start-up cost (the thread pool's edge for
    short batches); correctness — not the timing — is the assertion, since
    CI machine load makes pool start-up noisy.
    """
    serial = Engine(workers=1).run(_spec())
    timings = {}
    for executor in ("process", "thread"):
        engine = Engine(workers=4, executor=executor)
        best = min(engine.run(_spec()).elapsed_seconds for _ in range(3))
        timings[executor] = best
        assert engine.run(_spec()).flooding_times == serial.flooding_times
    print(
        f"\nengine 4-worker batch   process pool {timings['process'] * 1e3:8.1f} ms   "
        f"thread pool {timings['thread'] * 1e3:8.1f} ms"
    )


def _noop_primitive_seconds(calls: int = 200_000) -> float:
    """Per-call cost of the disabled telemetry primitives (span/count/timing)."""
    assert telemetry.active() is None
    started = time.perf_counter()
    for _ in range(calls):
        with telemetry.span("bench"):
            pass
        telemetry.count("bench")
        telemetry.timing("bench", 1.0)
    return (time.perf_counter() - started) / (3 * calls)


def _telemetry_timings(tmp_path) -> dict[str, float]:
    """Best engine wall-clock with telemetry disabled vs enabled (writing)."""
    disabled, reference = _best_time(Engine(backend="vectorized"), _spec())
    telemetry.enable(str(tmp_path), process="bench")
    try:
        enabled, samples = _best_time(Engine(backend="vectorized"), _spec())
    finally:
        telemetry.disable()
    assert samples == reference, "telemetry changed the samples"
    return {"disabled": disabled, "enabled": enabled}


def test_telemetry_noop_overhead(tmp_path):
    # The ISSUE 6 acceptance bar: instrumentation with telemetry *disabled*
    # must cost under 2% of an engine run.  The disabled primitives are one
    # module-global load plus a None check; even a (generous) estimate of
    # 100 primitive calls per trial must fit the 2% budget, and enabling
    # telemetry must not change the samples.
    timings = _telemetry_timings(tmp_path)
    per_call = _noop_primitive_seconds()
    estimated = per_call * 100 * TRIALS
    budget = 0.02 * timings["disabled"]
    print()
    print(f"engine run, telemetry disabled: {timings['disabled'] * 1e3:8.1f} ms")
    print(f"engine run, telemetry enabled:  {timings['enabled'] * 1e3:8.1f} ms  "
          f"(ratio x{timings['enabled'] / timings['disabled']:.3f})")
    print(f"disabled primitive: {per_call * 1e9:6.0f} ns/call -> "
          f"{estimated / timings['disabled']:.3%} of the run at 100 calls/trial")
    assert estimated < budget, (
        f"no-op telemetry would cost {estimated / timings['disabled']:.1%} "
        f"of the run (budget 2%)"
    )


def _stamp_call_seconds(calls: int = 200_000) -> float:
    """Per-record cost of the trace stamp inside an active scope."""
    with tracectx.attach_trace(tracectx.mint_trace_id()):
        started = time.perf_counter()
        for _ in range(calls):
            tracectx.stamp({"kind": "event", "name": "bench"})
        return (time.perf_counter() - started) / calls


def _trace_timings(tmp_path) -> dict[str, float]:
    """Best telemetry-enabled engine wall-clock, untraced vs inside a trace."""
    telemetry.enable(str(tmp_path), process="bench")
    try:
        untraced, reference = _best_time(Engine(backend="vectorized"), _spec())
        with tracectx.attach_trace(tracectx.mint_trace_id()):
            traced, samples = _best_time(Engine(backend="vectorized"), _spec())
    finally:
        telemetry.disable()
    assert samples == reference, "the trace scope changed the samples"
    return {"untraced": untraced, "traced": traced}


def test_trace_overhead(tmp_path):
    # The ISSUE 10 acceptance bar: trace propagation must cost under 2% of a
    # telemetry-enabled engine run.  The stamp is one thread-local lookup
    # plus a setdefault per *written record*, and records are per span/event
    # (a handful per chunk), not per trial — an estimate of 10 stamped
    # records per trial is an order of magnitude above the real rate and
    # must still fit the 2% budget; attaching a trace must not change the
    # samples.
    timings = _trace_timings(tmp_path)
    per_call = _stamp_call_seconds()
    estimated = per_call * 10 * TRIALS
    budget = 0.02 * timings["untraced"]
    print()
    print(f"engine run, telemetry on, untraced: {timings['untraced'] * 1e3:8.1f} ms")
    print(f"engine run, telemetry on, traced:   {timings['traced'] * 1e3:8.1f} ms  "
          f"(ratio x{timings['traced'] / timings['untraced']:.3f})")
    print(f"trace stamp: {per_call * 1e9:6.0f} ns/record -> "
          f"{estimated / timings['untraced']:.3%} of the run at 10 records/trial")
    assert estimated < budget, (
        f"trace stamping would cost {estimated / timings['untraced']:.1%} "
        f"of the run (budget 2%)"
    )


def _adaptive_specs(budget: int, target: float) -> tuple[TrialSpec, TrialSpec]:
    """A fixed-budget spec and its adaptive twin (same model, same seed)."""
    fixed = TrialSpec.from_model(
        EdgeMEG(64, p=4.0 / 64, q=0.5), num_trials=budget, seed=SEED
    )
    rule = StoppingRule(target_halfwidth=target, min_trials=32, check_every=32)
    adaptive = replace(fixed, stopping=rule)
    return fixed, adaptive


def test_adaptive_sweep_trial_savings():
    # Sequential stopping must hit the CI target with strictly fewer trials
    # than the fixed budget, on samples that are an exact prefix of the
    # fixed run's — adaptivity never changes what is simulated, only how
    # much of it.
    budget, target = 512, 0.05
    fixed, adaptive = _adaptive_specs(budget, target)
    fixed_result = Engine().run(fixed)
    adaptive_result = Engine().run(adaptive)
    print()
    print(f"fixed budget:    {fixed_result.num_trials:>5} trials")
    print(f"adaptive:        {adaptive_result.num_trials:>5} trials  "
          f"(x{fixed_result.num_trials / adaptive_result.num_trials:.2f} fewer)")
    assert adaptive_result.stopped_early
    assert adaptive_result.num_trials < fixed_result.num_trials
    realized = adaptive_result.num_trials
    assert adaptive_result.flooding_times == fixed_result.flooding_times[:realized]
    achieved = halfwidth(
        summarize(adaptive_result.flooding_times).std, realized, 0.95
    )
    assert achieved <= target
    # Determinism of the stop point across worker counts.
    again = Engine(workers=4).run(adaptive)
    assert again.num_trials == realized


def test_engine_result_store_roundtrip(tmp_path):
    store = ResultStore(tmp_path)
    engine = Engine(store=store)
    first = engine.run(_spec())
    second = engine.run(_spec())
    assert not first.from_cache
    assert second.from_cache
    assert first.flooding_times == second.flooding_times
    # A fresh store instance reads the same entry back from disk.
    reloaded = Engine(store=ResultStore(tmp_path)).run(_spec())
    assert reloaded.from_cache
    assert reloaded.flooding_times == first.flooding_times


# --------------------------------------------------------------------- #
# machine-readable benchmark (CI perf-trajectory artifact)
# --------------------------------------------------------------------- #
def run_benchmark_suite(quick: bool = False) -> dict:
    """Time every backend comparison and return a JSON-able report."""
    node_meg_n = 256 if quick else 512
    mobility_n = 256 if quick else 512
    snapshot_n = 2048 if quick else 4096
    repeats = 2

    report: dict = {"quick": quick, "benchmarks": {}}

    timings = _compare_backends(
        lambda: TrialSpec.from_model(
            EdgeMEG(NODES, p=4.0 / NODES, q=0.5),
            num_trials=10 if quick else TRIALS,
            seed=SEED,
        ),
        ("set", "vectorized"),
        repeats=repeats,
    )
    report["benchmarks"]["edge_meg_single_source"] = {
        "num_nodes": NODES,
        "milliseconds": {k: v * 1e3 for k, v in timings.items()},
        "speedup": timings["set"] / timings["vectorized"],
    }

    timings = _compare_backends(
        lambda: TrialSpec.from_model(_node_meg(node_meg_n), num_trials=8, seed=3),
        ("set", "auto"),
        repeats=repeats,
    )
    report["benchmarks"]["node_meg_single_source"] = {
        "num_nodes": node_meg_n,
        "milliseconds": {k: v * 1e3 for k, v in timings.items()},
        "speedup": timings["set"] / timings["auto"],
    }

    timings = _compare_backends(
        lambda: TrialSpec.from_model(
            _mobility(mobility_n), num_trials=2, num_sources=16, seed=1
        ),
        ("set", "auto"),
        repeats=repeats,
    )
    report["benchmarks"]["mobility_batched_sources"] = {
        "num_nodes": mobility_n,
        "num_sources": 16,
        "milliseconds": {k: v * 1e3 for k, v in timings.items()},
        "speedup": timings["set"] / timings["auto"],
    }

    timings = _compare_backends(
        lambda: TrialSpec.from_model(_sparse_snapshot(snapshot_n), num_trials=3, seed=0),
        ("vectorized", "sparse"),
        repeats=repeats,
    )
    report["benchmarks"]["sparse_snapshot_kernels"] = {
        "num_nodes": snapshot_n,
        "milliseconds": {k: v * 1e3 for k, v in timings.items()},
        "speedup": timings["vectorized"] / timings["sparse"],
    }

    batch_trials = 128 if quick else 512
    batch_model = _batch_node_meg(48)
    timings = _compare_backends(
        lambda: TrialSpec.from_model(batch_model, num_trials=batch_trials, seed=3),
        ("vectorized", "batch"),
        repeats=repeats,
    )
    report["benchmarks"]["realization_batch"] = {
        "num_nodes": 48,
        "num_trials": batch_trials,
        "milliseconds": {k: v * 1e3 for k, v in timings.items()},
        "speedup": timings["vectorized"] / timings["batch"],
    }

    # Adaptive-sampling trajectory: trials the stopping rule needs to hit the
    # CI target vs the fixed budget, plus the wall-clock of each run.  The
    # realized trial count is deterministic (seed + rule only), so the
    # "trial_speedup" column is noise-free across CI runs.
    budget = 256 if quick else 512
    target = 0.08 if quick else 0.05
    fixed_spec, adaptive_spec = _adaptive_specs(budget, target)
    fixed_time, _ = _best_time(Engine(), fixed_spec, repeats=repeats)
    adaptive_time, _ = _best_time(Engine(), adaptive_spec, repeats=repeats)
    realized = Engine().run(adaptive_spec).num_trials
    report["benchmarks"]["adaptive_sweep"] = {
        "num_nodes": 64,
        "budget": budget,
        "target_halfwidth": target,
        "realized_trials": realized,
        "milliseconds": {"fixed": fixed_time * 1e3, "adaptive": adaptive_time * 1e3},
        "trial_speedup": budget / realized,
        "speedup": fixed_time / adaptive_time,
    }

    # Telemetry overhead trajectory: the enabled/disabled wall-clock ratio
    # (≈1.0; the gate would flag enabled runs suddenly costing ~30% extra)
    # plus the disabled primitive cost, tracked in nanoseconds.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        timings = _telemetry_timings(tmp)
    report["benchmarks"]["telemetry_overhead"] = {
        "num_nodes": NODES,
        "milliseconds": {k: v * 1e3 for k, v in timings.items()},
        "noop_primitive_nanoseconds": _noop_primitive_seconds() * 1e9,
        "speedup": timings["enabled"] / timings["disabled"],
    }

    # Trace-propagation trajectory: the traced/untraced wall-clock ratio of
    # a telemetry-enabled run (≈1.0) plus the per-record stamp cost.
    with tempfile.TemporaryDirectory() as tmp:
        timings = _trace_timings(tmp)
    report["benchmarks"]["trace_overhead"] = {
        "num_nodes": NODES,
        "milliseconds": {k: v * 1e3 for k, v in timings.items()},
        "stamp_nanoseconds": _stamp_call_seconds() * 1e9,
        "speedup": timings["traced"] / timings["untraced"],
    }
    return report


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--quick", action="store_true", help="smaller sizes for CI smoke runs"
    )
    args = parser.parse_args()
    report = run_benchmark_suite(quick=args.quick)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, entry in report["benchmarks"].items():
        times = ", ".join(f"{k} {v:.1f}ms" for k, v in entry["milliseconds"].items())
        print(f"{name}: {times} (speedup x{entry['speedup']:.1f})")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Realization-batched kernel and backend roster: exactness on every family.

The kernels only exist for speed, so most of the test surface is equality:
the realization-batch kernel (and the ``backend="batch"`` fallback on models
without a trial-batch runner) must return bit-identical flooding outcomes to
the set-based loop on shared seeds for every model family, and the radius
neighbor search must return exactly the brute-force edge set on its boundary
and degenerate inputs.  The file also pins the two RNG stream identities the node-MEG runner is built on (block
pre-drawing and the inverse-CDF mirror of ``Generator.choice``), the
``backend="auto"`` resolution rules, and that the retired ``bitset`` backend
is rejected while stored records naming it still serve.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
import pytest

from repro import cli
from repro.api import compile_request, sweep_request
from repro.core.flooding import flood, flood_sources_set
from repro.engine import (
    BACKENDS,
    BATCH_AUTO_MAX_NODES,
    BATCH_AUTO_MIN_TRIALS,
    Engine,
    ResultStore,
    TrialSpec,
    flood_sources_batch,
    flood_sparse,
    flood_trials_batch,
    flood_vectorized,
    jsonify,
    resolve_backend,
)
from repro.fleet import JobSpool
from repro.graphs.grid import augmented_grid_graph, grid_graph
from repro.markov.builders import random_walk_on_graph
from repro.meg.base import StaticGraphProcess, overrides
from repro.meg.edge_meg import EdgeMEG
from repro.meg.node_meg import NodeMEG
from repro.mobility.connection import radius_pairs
from repro.mobility.random_path import GraphRandomWalkMobility, random_walk_path_model
from repro.mobility.random_waypoint import RandomWaypoint
from repro.serve import SimulationService
from repro.telemetry import core as telemetry


def _node_meg(num_nodes: int = 30) -> NodeMEG:
    chain = random_walk_on_graph(grid_graph(3)).lazy(0.2)
    return NodeMEG(
        num_nodes,
        chain,
        lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1,
    )


def _family_factories():
    return {
        "edge-meg": lambda: EdgeMEG(30, p=0.1, q=0.3),
        "node-meg": lambda: _node_meg(30),
        "grid": lambda: GraphRandomWalkMobility(
            24, augmented_grid_graph(4, 2), radius_hops=1
        ),
        "mobility": lambda: RandomWaypoint(24, side=4.0, radius=1.2, v_min=1.0),
        "static": lambda: StaticGraphProcess(nx.random_regular_graph(3, 20, seed=1)),
    }


FAMILIES = sorted(_family_factories())


class TestStreamIdentities:
    """The two RNG identities the fast trial-batch runner relies on."""

    def test_block_predraw_matches_sequential_draws(self):
        # Drawing a (K, m) block consumes the PCG64 stream exactly as K
        # sequential draws of m uniforms — the pre-draw window of the fast
        # runner therefore replays per-round draws bit-identically.
        for seed in range(20):
            block = np.random.default_rng(seed).random((8, 13))
            reference = np.random.default_rng(seed)
            for row in range(8):
                assert np.array_equal(block[row], reference.random(13))

    def test_choice_mirror_matches_generator_choice(self):
        # ``Generator.choice(k, size=n, p=dist)`` draws n uniforms and
        # inverts the normalised CDF; the mirror used by the batched reset
        # must reproduce it exactly, including the renormalisation step.
        for seed in range(50):
            dist_rng = np.random.default_rng(1000 + seed)
            dist = dist_rng.random(5)
            dist /= dist.sum()
            chosen = np.random.default_rng(seed).choice(5, size=17, p=dist)
            cdf = dist.cumsum()
            cdf /= cdf[-1]
            mirrored = cdf.searchsorted(
                np.random.default_rng(seed).random(17), side="right"
            )
            assert np.array_equal(chosen, mirrored)


class TestTrialBatchIdentity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_matches_per_trial(self, family, tmp_path):
        # Models with a runner flood the batch in lock-step, the rest resolve
        # to the vectorized kernel; either way the samples are the set loop's
        # and the stored record keeps the requested backend name.
        def spec():
            return TrialSpec.from_model(
                _family_factories()[family](), num_trials=6, seed=200
            )

        store = ResultStore(str(tmp_path))
        batched = Engine(backend="batch", store=store).run(spec())
        reference = Engine(backend="set").run(spec()).flooding_times
        assert batched.flooding_times == reference
        (record,) = [store.get(key) for key in store.keys()]
        assert record["backend"] == "batch"
        assert record["flooding_times"] == list(reference)

    def test_fast_runner_matches_generic_runner(self):
        # The node-MEG runner must agree draw for draw with per-trial model
        # copies reset from the same seeds; this pins the mirrored
        # reset/step math.
        seeds = list(range(40, 56))
        model = _node_meg(26)
        assert overrides(model, "trial_batch")
        batched = flood_trials_batch(model, seeds, source=3)
        per_trial = [
            flood_vectorized(_node_meg(26), source=3, rng=np.random.default_rng(seed))
            for seed in seeds
        ]
        assert batched == per_trial
        copies = [_node_meg(26) for _ in seeds]
        for copy, seed in zip(copies, seeds):
            copy.reset(np.random.default_rng(seed))
        informed = np.zeros((len(seeds), 26), dtype=bool)
        informed[:, 3] = True
        runner = model.trial_batch(len(seeds))
        runner.reset([np.random.default_rng(seed) for seed in seeds])
        sub = np.arange(len(seeds))
        expected = np.array([copy.reach_mask(row) for copy, row in zip(copies, informed)])
        assert np.array_equal(runner.reach(informed, sub), expected)

    def test_validation_and_edge_cases(self):
        model = _node_meg(10)
        assert flood_trials_batch(model, []) == []
        with pytest.raises(ValueError):
            flood_trials_batch(model, [0], source=10)
        with pytest.raises(ValueError):
            flood_trials_batch(model, [0], max_steps=-1)
        incomplete = flood_trials_batch(_node_meg(20), [0, 1], max_steps=1)
        assert all(result.flooding_time is None for result in incomplete)

    @pytest.mark.parametrize("family", ["edge-meg", "mobility", "static"])
    def test_requires_a_runner(self, family):
        model = _family_factories()[family]()
        assert not overrides(model, "trial_batch")
        with pytest.raises(ValueError, match="no trial_batch runner"):
            flood_trials_batch(model, [0, 1])

    def test_single_node_batch(self):
        results = flood_trials_batch(_node_meg(1), [0, 1, 2])
        assert all(result.flooding_time == 0 for result in results)
        assert all(result.informed_history == (1,) for result in results)


class TestStateLevelSourceBatch:
    @pytest.mark.parametrize("family", ["node-meg", "grid"])
    def test_reach_mask_batch_matches_columnwise(self, family):
        model = _family_factories()[family]()
        assert overrides(model, "reach_mask_batch")
        model.reset(6)
        rng = np.random.default_rng(0)
        informed = rng.random((model.num_nodes, 5)) < 0.2
        informed[0, :] = True
        batched = model.reach_mask_batch(informed)
        columnwise = np.column_stack(
            [model.reach_mask(informed[:, b]) for b in range(5)]
        )
        assert np.array_equal(batched, columnwise)

    def test_random_path_reach_mask_batch(self):
        model = random_walk_path_model(20, grid_graph(4), radius_hops=1)
        assert overrides(model, "reach_mask_batch")
        model.reset(2)
        informed = np.eye(20, 4, dtype=bool)
        assert np.array_equal(
            model.reach_mask_batch(informed),
            np.column_stack([model.reach_mask(informed[:, b]) for b in range(4)]),
        )

    @pytest.mark.parametrize("family", ["node-meg", "grid"])
    def test_source_batch_dense_still_matches_set(self, family):
        # The dense source-batch kernel now routes these families through
        # reach_mask_batch; outcomes must stay identical to the set loop.
        factory = _family_factories()[family]
        sources = [0, 5, 11]
        for seed in range(3):
            via_set = flood_sources_set(factory(), sources, rng=seed)
            via_dense = flood_sources_batch(
                factory(), sources, rng=seed, backend="dense"
            )
            assert via_set == via_dense


class TestCellListParity:
    """The k-d tree radius search against brute force on its hard inputs."""

    def _assert_matches_brute_force(self, points, radius):
        points = np.asarray(points, dtype=float)
        count = points.shape[0]
        brute = {
            (i, j)
            for i in range(count)
            for j in range(i + 1, count)
            if np.linalg.norm(points[i] - points[j]) <= radius
        }
        pairs = radius_pairs(points, radius)
        assert pairs.shape == (len(brute), 2)
        assert all(i < j for i, j in pairs)
        assert {(int(i), int(j)) for i, j in pairs} == brute

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    def test_integer_grid_boundary_inclusive(self, radius):
        # Integer coordinates put many pairs exactly on the radius; the
        # search must include them (distance <= r, not <).
        side = np.arange(6)
        points = np.array([[x, y] for x in side for y in side], dtype=float)
        self._assert_matches_brute_force(points, radius)

    def test_negative_and_coincident_points(self):
        points = np.array(
            [[-3.0, -4.0], [-3.0, -4.0], [-2.5, -4.0], [0.0, 0.0], [-3.0, -3.2]]
        )
        self._assert_matches_brute_force(points, 0.9)
        # Radius 0 still connects exactly coincident points.
        self._assert_matches_brute_force(points, 0.0)

    def test_degenerate_inputs(self):
        assert radius_pairs(np.empty((0, 2)), 1.0).shape == (0, 2)
        assert radius_pairs(np.array([[1.0, 2.0]]), 1.0).shape == (0, 2)
        with pytest.raises(ValueError):
            radius_pairs(np.zeros(3), 1.0)


class TestBackendResolutionNew:
    def test_backends_tuple(self):
        assert BACKENDS == ("auto", "set", "vectorized", "sparse", "batch")

    def test_auto_picks_batch_for_wide_small_batches(self):
        model = _node_meg(30)
        assert overrides(model, "trial_batch")
        assert resolve_backend("auto", model, num_trials=BATCH_AUTO_MIN_TRIALS) == "batch"
        assert (
            resolve_backend("auto", model, num_trials=BATCH_AUTO_MIN_TRIALS - 1)
            == "vectorized"
        )
        assert (
            resolve_backend(
                "auto", model, num_trials=64, batched_sources=True
            )
            == "vectorized"
        )

    def test_auto_batch_requires_fast_runner_and_small_model(self):
        no_runner = EdgeMEG(30, p=0.1, q=0.3)
        assert not overrides(no_runner, "trial_batch")
        assert resolve_backend("auto", no_runner, num_trials=500) == "vectorized"
        big = _node_meg(BATCH_AUTO_MAX_NODES + 1)
        assert resolve_backend("auto", big, num_trials=500) == "vectorized"

    def test_auto_keeps_static_processes_on_set(self):
        # Without a fast adjacency the set loop is auto's choice at any size.
        for nodes in (16, 2048):
            assert resolve_backend("auto", StaticGraphProcess(nx.path_graph(nodes))) == "set"
        assert resolve_backend("auto", EdgeMEG(2048, p=0.4, q=0.4)) == "vectorized"
        assert resolve_backend("auto", _node_meg(300)) == "vectorized"

    def test_explicit_backends_pass_through(self):
        model = EdgeMEG(10, p=0.1, q=0.3)
        for backend in ("set", "vectorized", "sparse"):
            assert resolve_backend(backend, model) == backend
        # Explicit batch needs a runner and single-source trials.
        assert resolve_backend("batch", model) == "vectorized"
        assert resolve_backend("batch", _node_meg(10)) == "batch"
        assert resolve_backend("batch", _node_meg(10), batched_sources=True) == "vectorized"
        for retired in ("packed", "bitset"):
            with pytest.raises(ValueError):
                resolve_backend(retired, model)

    def test_bitset_backend_is_rejected(self):
        with pytest.raises(ValueError, match="'bitset'") as raised:
            Engine(backend="bitset")
        assert str(BACKENDS) in str(raised.value)

    def test_cli_rejects_bitset_backend(self, capsys):
        with pytest.raises(SystemExit) as raised:
            cli.main(["sweep", "edge-meg", "--nodes", "12", "--backend", "bitset"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bitset'" in err
        for backend in BACKENDS:
            assert repr(backend) in err

    def test_engine_accepts_new_backends(self):
        times = {}
        for backend in ("set", "vectorized", "batch"):
            spec = TrialSpec.from_model(_node_meg(20), num_trials=5, seed=11)
            result = Engine(backend=backend).run(spec)
            assert result.backend == backend
            times[backend] = result.flooding_times
        assert times["set"] == times["vectorized"] == times["batch"]

    def test_auto_batch_worker_invariant(self):
        spec = TrialSpec.from_model(
            _node_meg(24), num_trials=2 * BATCH_AUTO_MIN_TRIALS, seed=7
        )
        serial = Engine(workers=1).run(spec).flooding_times
        threaded = Engine(workers=3, executor="thread").run(
            TrialSpec.from_model(_node_meg(24), num_trials=2 * BATCH_AUTO_MIN_TRIALS, seed=7)
        ).flooding_times
        explicit = Engine(backend="set").run(
            TrialSpec.from_model(_node_meg(24), num_trials=2 * BATCH_AUTO_MIN_TRIALS, seed=7)
        ).flooding_times
        assert serial == threaded == explicit


class TestSparseKernel:
    def test_sparse_kernel_matches_set(self):
        for seed in range(3):
            assert flood_sparse(EdgeMEG(30, p=0.1, q=0.3), rng=seed) == flood(
                EdgeMEG(30, p=0.1, q=0.3), rng=seed
            )


class TestLegacyBitsetRecords:
    def test_warm_hit_serves_a_bitset_record_byte_identically(self, tmp_path):
        # A store written by an older release with --backend bitset holds the
        # same samples under the same keys (keys never include the backend);
        # the service must keep answering it as a warm hit.
        request = sweep_request("edge-meg", [12, 16], 4, seed=7)
        plan = compile_request(request)
        reference_store = ResultStore(str(tmp_path / "reference"))
        engine = Engine(backend="set", store=reference_store)
        records = {}
        for job in plan.jobs:
            batch = engine.run(job.spec)
            records[job.tag] = {
                "flooding_times": list(batch.flooding_times),
                "num_nodes": batch.num_nodes,
            }
        expected = json.dumps(jsonify(plan.assemble(records)), indent=2, sort_keys=True)

        legacy = ResultStore(str(tmp_path / "legacy"))
        for key in reference_store.keys():
            legacy.put(key, {**reference_store.get(key), "backend": "bitset"})
        service = SimulationService(
            ResultStore(str(tmp_path / "legacy")), JobSpool(tmp_path / "spool")
        )
        result = service.submit(
            {"kind": "sweep", "family": "edge-meg", "nodes": [12, 16], "trials": 4, "seed": 7}
        )
        assert result.status == 200
        assert result.headers["X-Cache"] == "hit"
        assert json.dumps(jsonify(result.payload), indent=2, sort_keys=True) == expected
        assert service.spool.counts()["jobs"] == 0


class TestKernelTelemetry:
    def test_dispatch_counters_recorded(self):
        instance = telemetry.activate(telemetry.Telemetry(process="kernel-test"))
        try:
            flood_sparse(EdgeMEG(15, p=0.2, q=0.3), rng=0)
            flood_trials_batch(_node_meg(20), [0, 1, 2])
            spec = TrialSpec.from_model(
                _node_meg(20), num_trials=BATCH_AUTO_MIN_TRIALS, seed=0
            )
            Engine().run(spec)
            counters = instance.metrics_snapshot()["counters"]
        finally:
            telemetry.deactivate(instance)
        assert counters["kernel.flood.sparse"] == 1
        # 3 direct trials plus the engine's auto-batched run of 32.
        assert counters["kernel.flood.batch_trials"] == 3 + BATCH_AUTO_MIN_TRIALS
        assert counters["engine.backend.batch"] == BATCH_AUTO_MIN_TRIALS

"""Byte pins of the engine's batch lifecycle (``Engine.run``/``run_shard``).

Every path through the lifecycle is run into a fresh store and the store
file's SHA-256 is compared with a pinned value, together with the returned
:class:`~repro.engine.spec.BatchResult` fields (elapsed time aside), the
``engine.run``/``engine.run_shard`` span fields and the ``engine.store.*``
counters.  The paths: a fixed spec through ``run``; ``run_shard`` for every
shard at K = 1, 2 and 5 of a 3-trial spec (so some shards are empty); shards
served from a stored parent record; and an adaptive spec through ``run``
and ``run_shard``.

Regenerate after an intended change with
``PYTHONPATH=src python tests/test_engine_lifecycle_pins.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.engine import Engine, ResultStore, ShardSpec, TrialSpec
from repro.meg.edge_meg import EdgeMEG
from repro.stats.sequential import StoppingRule
from repro.telemetry import core as telemetry

SHARDINGS = [(index, count) for count in (1, 2, 5) for index in range(count)]
# Span fields that vary from run to run (times, ids, process identity).
VOLATILE = {"ts", "process", "span_id", "parent_id", "duration_seconds", "trace", "pid"}


def _spec(stopping=None) -> TrialSpec:
    return TrialSpec(
        factory=EdgeMEG,
        args=(12,),
        kwargs={"p": 0.2, "q": 0.4},
        num_trials=6 if stopping else 3,
        seed=7,
        stopping=stopping,
        label="pin",
        tags={"point": "n=12"},
    )


def _adaptive_spec() -> TrialSpec:
    return _spec(StoppingRule(target_halfwidth=50.0, min_trials=2, check_every=2))


def _digest(store: ResultStore) -> str:
    with open(store.path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _fields(result) -> list:
    """Every :class:`BatchResult` field but the elapsed time, in field order."""
    fields = result.as_dict()
    del fields["elapsed_seconds"]
    return list(fields.values())


def _observe(directory: str, action) -> list:
    """Run ``action(engine)`` on a fresh store: ``[store SHA-256, result fields]``."""
    os.makedirs(directory)
    store = ResultStore(directory)
    result = action(Engine(store=store))
    return [_digest(store), _fields(result)]


def observations(root: str) -> dict:
    """Everything the pins cover, computed under ``root``."""
    out: dict = {}
    base = os.path.join(root, "plain")
    out["run"] = _observe(os.path.join(base, "run"), lambda engine: engine.run(_spec()))
    for index, count in SHARDINGS:
        shard = ShardSpec(_spec(), index, count)
        out[f"shard {index}/{count}"] = _observe(
            os.path.join(base, f"shard-{index}-{count}"),
            lambda engine, shard=shard: engine.run_shard(shard),
        )

        def from_parent(engine, shard=shard):
            engine.run(_spec())
            return engine.run_shard(shard)

        out[f"parent {index}/{count}"] = _observe(
            os.path.join(base, f"parent-{index}-{count}"), from_parent
        )
    out["adaptive run"] = _observe(
        os.path.join(root, "adaptive-run"), lambda engine: engine.run(_adaptive_spec())
    )
    out["adaptive shard 0/1"] = _observe(
        os.path.join(root, "adaptive-shard"),
        lambda engine: engine.run_shard(ShardSpec(_adaptive_spec(), 0, 1)),
    )
    return out


def span_observations(root: str) -> dict:
    """Span fields and store counters of one traced pass over every path."""
    instance = telemetry.activate(telemetry.Telemetry(os.path.join(root, "tel"), process="p"))
    try:
        engine = Engine(store=ResultStore(os.path.join(root, "a")))
        engine.run(_spec())  # miss
        engine.run(_spec())  # hit
        engine.run_shard(ShardSpec(_spec(), 1, 2))  # served from the parent
        sharded = Engine(store=ResultStore(os.path.join(root, "b")))
        sharded.run_shard(ShardSpec(_spec(), 1, 2))  # miss
        sharded.run_shard(ShardSpec(_spec(), 1, 2))  # hit on the shard record
        sharded.run_shard(ShardSpec(_spec(), 4, 5))  # empty shard
        Engine().run(_spec())  # no store
        engine.run(_adaptive_spec())
        engine.run_shard(ShardSpec(_adaptive_spec(), 0, 1))
        counters = dict(instance.metrics_snapshot()["counters"])
    finally:
        telemetry.deactivate(instance)
        instance.close()
    with open(instance.path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    spans = [
        {key: value for key, value in event.items() if key not in VOLATILE}
        for event in events
        if event["kind"] == "span" and event["name"].startswith("engine.run")
    ]
    store_counters = {
        name: value for name, value in sorted(counters.items())
        if name.startswith("engine.store.")
    }
    return {"spans": spans, "counters": store_counters}


PINNED = {
    "run": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [2, 2, 3], "auto", 1, False, False]],
    "shard 0/1": ["ee4287e50a1359f3c50456be66f0e2e438e80598ca0bce715bc1276096a6a0ad", ["pin", 12, [2, 2, 3], "auto", 1, False, False]],
    "parent 0/1": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [2, 2, 3], "auto", 1, True, False]],
    "shard 0/2": ["09f2f223e280cd3d4790e72f767c4b94c27c9296a1b1c44ae4020edca53b7cfd", ["pin", 12, [2, 3], "auto", 1, False, False]],
    "parent 0/2": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [2, 3], "auto", 1, True, False]],
    "shard 1/2": ["ae1e2b7d34086276f57b7c68edcf93f0bba72e3416c69c26fd6891966762c1da", ["pin", 12, [2], "auto", 1, False, False]],
    "parent 1/2": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [2], "auto", 1, True, False]],
    "shard 0/5": ["5b46f151335949ab6136ef16164dc8e1d7abea2de45c784bf1dcb616693aefaa", ["pin", 12, [2], "auto", 1, False, False]],
    "parent 0/5": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [2], "auto", 1, True, False]],
    "shard 1/5": ["b6cbd766440f02f38e45eff9c27632b752465744c546ea4901334509c4e25597", ["pin", 12, [2], "auto", 1, False, False]],
    "parent 1/5": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [2], "auto", 1, True, False]],
    "shard 2/5": ["ee3cb7f209efdbc8eb2b56d97de40be348bb325a7705df02c036f093555139a7", ["pin", 12, [3], "auto", 1, False, False]],
    "parent 2/5": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [3], "auto", 1, True, False]],
    "shard 3/5": ["b6e7b9e1b44cf859d4174f35da4cdbcefaec1b3319684fe6d24a4994b11c583a", ["pin", 12, [], "auto", 1, False, False]],
    "parent 3/5": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [], "auto", 1, True, False]],
    "shard 4/5": ["9f6d867498fdd0422fbc1410e88e9ac355c1fccef92cc4e3e28c7801357ee9ee", ["pin", 12, [], "auto", 1, False, False]],
    "parent 4/5": ["50c6331d5461078891d062116da3f8c0a39d35ed011311ff6a8388f4b42a0bba", ["pin", 12, [], "auto", 1, True, False]],
    "adaptive run": ["14705bcf4b75ecf31f293a87661fc4a50b98123ed966c6e7514678ab0ec4567b", ["pin", 12, [2, 2], "auto", 1, False, True]],
    "adaptive shard 0/1": ["14705bcf4b75ecf31f293a87661fc4a50b98123ed966c6e7514678ab0ec4567b", ["pin", 12, [2, 2], "auto", 1, False, True]],
}

PINNED_SPANS = {
    "spans": [
        {"cached": False, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run", "realized_trials": 3, "trials": 3, "workers": 1},
        {"cached": True, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run", "trials": 3, "workers": 1},
        {"cached": True, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run_shard", "shard": "1/2", "workers": 1},
        {"cached": False, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run_shard", "shard": "1/2", "workers": 1},
        {"cached": True, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run_shard", "shard": "1/2", "workers": 1},
        {"cached": False, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run_shard", "shard": "4/5", "workers": 1},
        {"cached": False, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run", "realized_trials": 3, "trials": 3, "workers": 1},
        {"cached": False, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run", "realized_trials": 2, "trials": 6, "workers": 1},
        {"cached": True, "executor": "process", "kind": "span", "label": "pin", "name": "engine.run", "trials": 6, "workers": 1},
    ],
    "counters": {"engine.store.hit": 4, "engine.store.miss": 4, "engine.store.put": 4},
}


@pytest.fixture(scope="module")
def observed(tmp_path_factory) -> dict:
    return observations(str(tmp_path_factory.mktemp("pins")))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_store_bytes_and_result_pinned(observed, name):
    assert observed[name] == PINNED[name]


def test_every_path_is_pinned(observed):
    assert sorted(observed) == sorted(PINNED)


def test_spans_and_store_counters_pinned(tmp_path):
    telemetry.disable()
    try:
        assert span_observations(str(tmp_path)) == PINNED_SPANS
    finally:
        telemetry.disable()


def test_adaptive_spec_refuses_trial_shards():
    engine = Engine()
    with pytest.raises(ValueError) as excinfo:
        engine.run_shard(ShardSpec(_adaptive_spec(), 0, 2))
    assert str(excinfo.value) == (
        "sequential stopping cannot be trial-sharded: the stopping "
        "decision at trial t depends on all earlier samples; run the "
        "spec unsharded, or derive fixed per-point budgets from a "
        "pilot round (fleet --target-ci)"
    )


def test_shard_from_parent_record_is_sliced_without_sketch(tmp_path, monkeypatch):
    """The record a parent-served shard reads is ``[i::K]`` of the parent's."""
    seen = []
    original = Engine._cached_result

    def spy(self, record, spec, started):
        seen.append(record)
        return original(self, record, spec, started)

    monkeypatch.setattr(Engine, "_cached_result", spy)
    engine = Engine(store=ResultStore(str(tmp_path)))
    full = engine.run(_spec())
    stored = engine.store.get(next(iter(engine.store.keys())))
    for index, count in SHARDINGS:
        seen.clear()
        result = engine.run_shard(ShardSpec(_spec(), index, count))
        (record,) = seen
        assert list(record["flooding_times"]) == list(full.flooding_times[index::count])
        assert result.flooding_times == full.flooding_times[index::count]
    # The parent record itself is left untouched.
    assert engine.store.get(next(iter(engine.store.keys()))) == stored


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        print("PINNED = {")
        for name, value in observations(os.path.join(root, "o")).items():
            print(f"    {json.dumps(name)}: {json.dumps(value)},")
        print("}")
        traced = span_observations(os.path.join(root, "s"))
        print('PINNED_SPANS = {\n    "spans": [')
        for span in traced["spans"]:
            print(f"        {json.dumps(span, sort_keys=True)},")
        print(f'    ],\n    "counters": {json.dumps(traced["counters"])},\n}}')

"""Pinned response bodies of compiled requests, byte for byte.

Each case compiles a request, runs its jobs on a direct ``Engine(workers=1)``
into a fresh result store, and assembles the stored records into the body
the HTTP adapter sends::

    json.dumps(jsonify(plan.assemble(records)), indent=2, sort_keys=True) + "\\n"

``tests/data/serve_bodies_golden.json`` holds each body's SHA-256, length and
first store key.  A change to assembly, summaries, ``jsonify`` or key
derivation that moves a single byte fails here.  Regenerate the goldens
after an intended change with::

    PYTHONPATH=src python tests/test_serve_bodies.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from repro.api import compile_request, experiment_request, flood_request, sweep_request
from repro.engine import Engine, ResultStore
from repro.engine.store import jsonify

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "serve_bodies_golden.json")

#: case name -> request
CASES = {
    "sweep-edge-meg-1024": sweep_request("edge-meg", [16, 32], [24, 1024], seed=5),
    "sweep-waypoint": sweep_request("waypoint", [8, 12], 6, seed=2),
    "sweep-grid-walk": sweep_request("grid-walk", [8, 12], 6, seed=2),
    "flood-edge-meg": flood_request("edge-meg", 64, seed=1),
    "experiment-E3-small": experiment_request("E3", "small", seed=3),
    "sweep-edge-meg-stopping": sweep_request(
        "edge-meg", [16, 24], 64, seed=7, stopping={"target_halfwidth": 0.5}
    ),
}


def served_body(name: str, directory: str) -> tuple[str, str]:
    """``(body text, first store key)`` of case ``name``, run into ``directory``."""
    plan = compile_request(CASES[name])
    store = ResultStore(directory)
    engine = Engine(workers=1, store=store)
    records = {}
    for job, key in zip(plan.jobs, plan.store_keys):
        engine.run(job.spec)
        records[job.tag] = store.get(key)
    text = json.dumps(jsonify(plan.assemble(records)), indent=2, sort_keys=True) + "\n"
    return text, plan.store_keys[0]


def pin(text: str, key: str) -> dict:
    """The golden entry of one body."""
    data = text.encode("utf-8")
    return {"bytes": len(data), "first_key": key, "sha256": hashlib.sha256(data).hexdigest()}


def load_goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_goldens_cover_every_case():
    assert sorted(load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_body_matches_golden(name, tmp_path):
    text, key = served_body(name, str(tmp_path))
    assert pin(text, key) == load_goldens()[name]


if __name__ == "__main__":
    goldens = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            goldens[case] = pin(*served_body(case, scratch))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")

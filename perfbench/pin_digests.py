"""Record the output digests the sweep workloads check against.

Runs every pinned sweep seed of both sweep workloads cold and writes the
SHA-256 of each ``--json`` output to ``perfbench/digests.json``.  Run it only
at a commit whose outputs are known good (the digests define "correct"):

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from harness import digest
from workload import DIGEST_SEEDS, DIGESTS_PATH, SWEEPS, run_cli, sweep_argv


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digests = {}
    for workload in SWEEPS:
        digests[workload] = {}
        for seed in range(DIGEST_SEEDS):
            directory = tempfile.mkdtemp(prefix="pin-", dir=root)
            try:
                path = os.path.join(directory, "out.json")
                code, _, _ = run_cli(sweep_argv(workload, seed, directory, path))
                if code != 0:
                    print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
                    return 1
                with open(path, "rb") as handle:
                    digests[workload][str(seed)] = digest(handle.read())
            finally:
                shutil.rmtree(directory, ignore_errors=True)
        print(f"{workload}: {DIGEST_SEEDS} digests")
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

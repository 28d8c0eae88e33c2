"""Time one serve-fill-shaped merge into result stores of growing size.

A ``repro serve`` fill merges one job store holding a single 1-of-1 shard
partial into the service store.  This script builds service stores of N
full batch records (1,024 trials each, the shape of a real record), then
times ``ResultStore.merge`` of one fresh partial into each, repeated on the
same handle as a long-lived server would, and prints the median and the
quartiles per store size::

    PYTHONPATH=src python benchmarks/store_merge.py [--sizes 40,400,2000]
        [--repeats 15] [--work-dir DIR]

Only the public ``ResultStore`` API is used, so the script runs unchanged
against any version of the store.  It is a measurement, not a test: nothing
here asserts a time.
"""

from __future__ import annotations

import argparse
import random
import statistics
import tempfile
import time

from repro.engine import ResultStore

TRIALS = 1024


def _times(rng: random.Random) -> list:
    return [rng.randrange(8, 40) for _ in range(TRIALS)]


def _batch(rng: random.Random) -> dict:
    return {"label": "edge-meg", "num_nodes": 64, "flooding_times": _times(rng),
            "backend": "vectorized"}


def _partial(rng: random.Random, parent: str) -> dict:
    record = _batch(rng)
    record.update(parent_key=parent, shard={"index": 0, "count": 1, "num_trials": TRIALS})
    return record


def measure(size: int, repeats: int, work_dir: str, rng: random.Random) -> list:
    """Seconds per one-partial merge into a store of ``size`` records."""
    store = ResultStore(f"{work_dir}/store-{size}")
    for index in range(size):
        store.put(f"{index:064x}", _batch(rng))
    store.merge()  # a server's handle has merged before; time the steady state
    seconds = []
    for repeat in range(repeats):
        parent = f"{size + repeat:064x}"
        source = ResultStore(f"{work_dir}/job-{size}-{repeat}")
        source.put(f"{parent}/shard0of1", _partial(rng, parent))
        started = time.perf_counter()
        store.merge(source)
        seconds.append(time.perf_counter() - started)
        assert store.get(parent) is not None
    return seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="40,400,2000")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(dir=args.work_dir) as work_dir:
        print(f"{'records':>8} {'median ms':>10} {'q1 ms':>8} {'q3 ms':>8}")
        for size in (int(text) for text in args.sizes.split(",")):
            seconds = measure(size, args.repeats, work_dir, rng)
            q1, median, q3 = statistics.quantiles(seconds, n=4)
            print(f"{size:>8} {median * 1e3:>10.2f} {q1 * 1e3:>8.2f} {q3 * 1e3:>8.2f}")


if __name__ == "__main__":
    main()

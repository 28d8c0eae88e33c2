"""Pure arithmetic of the benchmark: percentiles, host speed, the open loop, checks.

Nothing here imports :mod:`repro`, so the rules the benchmark reports by can
be tested on their own (see ``perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: Percentiles a tail metric may be reported at, highest first.
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)

#: Samples a reported tail percentile must have strictly beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest listed percentile with ten samples beyond it.

    With ``count`` samples, the nearest-rank percentile ``p`` leaves
    ``count - ceil(p/100 * count)`` samples above it; the rule reports the
    highest listed percentile for which that is at least
    :data:`MIN_TAIL_SAMPLES`.  ``None`` when even the median has fewer.
    """
    for pct in TAIL_PERCENTILES:
        beyond = count - max(1, math.ceil(pct / 100.0 * count))
        if beyond >= MIN_TAIL_SAMPLES:
            return pct
    return None


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
#: iterations of the gauge loop (about 0.6 ms on a 2-3 GHz core)
GAUGE_ROUNDS = 20000
#: a run's full-speed gauge reading: this percentile of all its readings
GAUGE_FLOOR_PERCENTILE = 5.0


def gauge(rounds: int = GAUGE_ROUNDS) -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    A shared host slows a core down (1.5-2x, for spells of a tenth of a
    second to a few seconds) when its neighbours get busy.  The loop does
    the same work every time, so its reading tracks that slowdown and
    nothing of the program's.
    """
    started = time.perf_counter()
    total = 0
    for index in range(rounds):
        total += index * index % 7
    return time.perf_counter() - started


@dataclass(frozen=True)
class Sample:
    """A timed operation with the gauge readings taken right before and after."""

    seconds: float
    before: float
    after: float

    def at_full_speed(self, floor: float) -> float:
        """The time at the host's full speed (gauge reading ``floor``).

        The sample shrinks by the ratio of ``floor`` to the mean of its two
        readings; it never grows.
        """
        return self.seconds * min(1.0, 2.0 * floor / (self.before + self.after))


def gauge_floor(samples: Sequence[Sample]) -> float:
    """The full-speed gauge reading of a run: a low percentile of its readings."""
    readings = [reading for s in samples for reading in (s.before, s.after)]
    return percentile(readings, GAUGE_FLOOR_PERCENTILE)


# ---------------------------------------------------------------------- #
# the open-loop request schedule
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScheduledRequest:
    """One request of the open loop: when it is due and what it asks for."""

    offset: float  # seconds after the loop starts
    kind: str  # "hit", "revalidate" or "cold"
    target: int  # pool index (hit, revalidate) or cold-request index


def make_schedule(
    seed: int, counts: dict[str, int], pool_size: int, duration: float
) -> list[ScheduledRequest]:
    """A seeded Poisson schedule of a fixed request mix over ``duration`` seconds.

    The mix is exact (``counts`` per kind), shuffled by the seed; warm kinds
    spread their requests evenly over the pool before shuffling, so every
    seed asks for the same work in a different order.  Arrival gaps are
    exponential and rescaled so the last request is due before
    ``duration`` — a Poisson process conditioned on its request count.
    """
    rng = random.Random(seed)
    kinds = [kind for kind, count in sorted(counts.items()) for _ in range(count)]
    rng.shuffle(kinds)
    targets: dict[str, list[int]] = {}
    for kind, count in sorted(counts.items()):
        if kind == "cold":
            targets[kind] = list(range(count))
        else:
            spread = [index % pool_size for index in range(count)]
            rng.shuffle(spread)
            targets[kind] = spread
    gaps = [rng.expovariate(1.0) for _ in range(len(kinds) + 1)]
    total = sum(gaps)
    schedule = []
    elapsed = 0.0
    for kind, gap in zip(kinds, gaps):
        elapsed += gap
        schedule.append(
            ScheduledRequest(duration * elapsed / total, kind, targets[kind].pop(0))
        )
    return schedule


@dataclass(frozen=True)
class Timing:
    """When a request was due, actually sent, and answered (loop clock)."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Due-time latency: a stall before this request counts against it."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """How late the generator sent it."""
        return self.sent - self.due

    @property
    def busy(self) -> float:
        """Time spent serving it."""
        return self.done - self.sent


def run_open_loop(
    offsets: Sequence[float],
    handle: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    between: Optional[Callable[[], None]] = None,
) -> list[Timing]:
    """Send request ``i`` at ``start + offsets[i]`` (or at once, if late).

    One thread: a request that stalls delays every later one, and the due-time
    latency of those later requests includes the wait.  ``between`` runs
    after each answer is timed; a request due meanwhile waits for it too.
    """
    start = clock()
    timings = []
    for index, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        handle(index)
        timings.append(Timing(due, sent, clock()))
        if between is not None:
            between()
    return timings


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def digest(data: bytes) -> str:
    """SHA-256 hex digest of output bytes."""
    return hashlib.sha256(data).hexdigest()


def cold_sweep_bytes(text: str) -> bytes:
    """A sweep ``--json`` file as its cold run writes it.

    A re-run served from the result store differs only in its per-point
    ``from_cache`` flags; clearing them maps it back onto the cold bytes, so
    one pinned digest checks both.
    """
    payload = json.loads(text)
    for measurement in payload["measurements"]:
        measurement["from_cache"] = False
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def sweep_output_ok(text: str, expected_digest: str) -> bool:
    """Whether a sweep's JSON output matches the digest pinned for its inputs."""
    try:
        return digest(cold_sweep_bytes(text)) == expected_digest
    except (ValueError, KeyError, TypeError):
        return False

"""The engine's option values and the shard notation, importable without NumPy.

The CLI builds its parsers from these, so help pages and usage errors never
load the simulation stack; :mod:`repro.engine.engine` and
:mod:`repro.engine.shard` re-export them.
"""

from __future__ import annotations

BACKENDS = ("auto", "set", "vectorized", "sparse", "batch")
EXECUTORS = ("process", "thread")


def parse_shard(text: str) -> tuple[int, int]:
    """Parse the CLI's ``i/K`` shard notation into ``(index, count)``."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"shard must look like i/K (e.g. 0/3), got {text!r}")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"shard must look like i/K (e.g. 0/3), got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard index must lie in [0, count) with count >= 1, got {text!r}")
    return index, count

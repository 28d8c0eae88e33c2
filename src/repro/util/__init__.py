"""Shared utilities: random-number handling, validation, math and statistics.

These helpers are deliberately dependency-light so every other sub-package can
use them without import cycles.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.util.rng": ("ensure_rng", "spawn_rngs", "spawn_seed_sequences"),
        "repro.util.validation": (
            "require_in_range",
            "require_positive",
            "require_probability",
            "require_type",
        ),
    },
)

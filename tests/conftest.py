"""Shared pytest configuration and fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
from hypothesis import settings

# Allow running the tests straight from a source checkout (before
# ``pip install -e .``) by putting the src layout on the path.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Hypothesis profiles.  The default one is derandomized: every run replays
# the same examples and ignores the local example database, so the suite
# gives the same verdict on every machine.  ``pytest --hypothesis-profile=hunt``
# draws fresh random examples, HUNT_FACTOR times each test's own budget, and
# records failures in ``.hypothesis/`` for replay.
HUNT_FACTOR = 20
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("hunt", derandomize=False, deadline=None, print_blob=True)
settings.load_profile("default")


def pytest_collection_modifyitems(config, items):
    """Scale every property test's example budget under the hunt profile."""
    if config.getoption("--hypothesis-profile", None) != "hunt":
        return
    # Parametrized items share one function: scale each function once.
    tests = {getattr(item.obj, "__func__", item.obj) for item in items if hasattr(item, "obj")}
    for test in tests:
        # ``@settings`` budgets live on the ``@given`` wrapper, which reads
        # this attribute when the test runs.
        budget = getattr(test, "_hypothesis_internal_use_settings", None)
        if budget is not None:
            test._hypothesis_internal_use_settings = settings(
                budget, max_examples=budget.max_examples * HUNT_FACTOR
            )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_edge_meg():
    """A small, sparse classic edge-MEG used by several test modules."""
    from repro.meg.edge_meg import EdgeMEG

    return EdgeMEG(40, p=0.05, q=0.5)


@pytest.fixture
def small_grid_graph():
    """A 4x4 grid mobility graph."""
    from repro.graphs.grid import grid_graph

    return grid_graph(4)

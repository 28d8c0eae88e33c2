"""Concurrency tests for the result store: parallel appends and compaction.

The store's contract under concurrency: appends from any number of processes
never interleave partial lines, and ``compact()`` never drops a record
another process appended — even when this instance's lazy in-memory index
was built before that append happened.  In one process, a ``put`` that
lands right before or right after a ``merge``/``compact`` swaps the
in-memory index stays indexed.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing

import pytest

from repro.engine import ResultStore


def _context() -> multiprocessing.context.BaseContext:
    """Fork where possible (cheap child start); spawn otherwise."""
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def _write_records(directory: str, writer: int, count: int) -> None:
    store = ResultStore(directory)
    for i in range(count):
        # A payload long enough that a torn write would be detectable.
        store.put(
            f"writer{writer}-key{i}",
            {"writer": writer, "index": i, "payload": list(range(200))},
        )


class TestConcurrentWriters:
    @pytest.mark.parametrize("writers,records", [(4, 25)])
    def test_parallel_appends_lose_nothing(self, tmp_path, writers, records):
        context = _context()
        processes = [
            context.Process(target=_write_records, args=(str(tmp_path), w, records))
            for w in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0

        # Every line parses (no interleaved partial writes) ...
        store = ResultStore(tmp_path)
        with open(store.path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == writers * records
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"key", "record"}
        # ... and every record is present.
        assert len(store) == writers * records
        for w in range(writers):
            for i in range(records):
                assert store.get(f"writer{w}-key{i}")["index"] == i

    def test_compact_during_concurrent_appends(self, tmp_path):
        context = _context()
        processes = [
            context.Process(target=_write_records, args=(str(tmp_path), w, 30))
            for w in range(2)
        ]
        for process in processes:
            process.start()
        compactor = ResultStore(tmp_path)
        # Interleave compactions with the writers' appends.
        for _ in range(5):
            compactor.compact()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        final = ResultStore(tmp_path)
        assert len(final) == 2 * 30
        assert final.compact() >= 0
        assert len(ResultStore(tmp_path)) == 2 * 30


class TestLazyIndexRace:
    def test_compact_keeps_records_appended_by_another_instance(self, tmp_path):
        first = ResultStore(tmp_path)
        first.put("k1", {"value": 1})
        assert first.get("k1")  # builds the lazy index now

        # A second process (simulated by a second instance) appends.
        second = ResultStore(tmp_path)
        second.put("k2", {"value": 2})

        # The first instance's index predates k2; compact must not drop it.
        first.compact()
        fresh = ResultStore(tmp_path)
        assert fresh.get("k1") == {"value": 1}
        assert fresh.get("k2") == {"value": 2}

    def test_refresh_picks_up_foreign_appends(self, tmp_path):
        first = ResultStore(tmp_path)
        first.put("k1", {"value": 1})
        second = ResultStore(tmp_path)
        second.put("k2", {"value": 2})
        assert first.get("k2") is None  # stale lazy index: miss, not corruption
        first.refresh()
        assert first.get("k2") == {"value": 2}

    def test_compact_is_atomic_replace(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(10):
            store.put(f"k{i}", {"value": i})
        store.compact()
        # No leftover temporary file, and the data survived.
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert "results.jsonl.compact" not in leftovers
        assert len(ResultStore(tmp_path)) == 10


def _interpose(store: ResultStore, before=None, after=None) -> None:
    """Run ``before``/``after`` around the first lock span ``store`` takes.

    Simulates a second thread of the same process reaching the store at
    the worst moment, deterministically.
    """
    original = store._locked
    pending = [True]

    @contextlib.contextmanager
    def locked():
        first = pending and pending.pop()
        if first and before is not None:
            before()
        with original():
            yield
        if first and after is not None:
            after()

    store._locked = locked


class TestIndexSwapUnderLock:
    @pytest.fixture
    def stores(self, tmp_path):
        store = ResultStore(tmp_path / "main")
        store.put("old", {"value": 0})
        source = ResultStore(tmp_path / "source")
        source.put("incoming", {"value": 1})
        return store, source

    @pytest.mark.parametrize("operation", ["merge", "compact"])
    def test_put_right_after_index_swap_unlocks(self, stores, operation):
        store, source = stores
        _interpose(store, after=lambda: store.put("late", {"value": 2}))
        if operation == "merge":
            store.merge(source)
        else:
            store.compact()
        assert store.get("late") == {"value": 2}
        assert store.get("old") == {"value": 0}
        assert ResultStore.at(store.path).get("late") == {"value": 2}

    @pytest.mark.parametrize("operation", ["merge", "compact"])
    def test_index_swap_right_before_put_locks(self, stores, operation):
        store, source = stores
        swap = (lambda: store.merge(source)) if operation == "merge" else store.compact
        _interpose(store, before=swap)
        store.put("late", {"value": 2})
        assert store.get("late") == {"value": 2}
        assert store.get("old") == {"value": 0}

"""Tests for the incremental store merge and the store's torn-tail handling.

``ResultStore.merge`` reads only what was appended since a handle last read
the file, assembles only the shard groups it can complete and appends its
new records when no line already in the file has to go.  The oracle below
holds it to the full-rescan merge it replaced: the reference rescans the
whole file under the lock, unions, runs the assembly pass over every shard
partial in the store and rewrites the file on every call.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MergeConflictError, ResultStore
from repro.engine.store import _ABSENT, _assemble_shard_groups, _is_shard_record
from repro.telemetry import core as telemetry


class FullRescanStore(ResultStore):
    """A store whose merge rescans and rewrites the whole file every call."""

    def merge(self, *sources):
        resolved = [
            source if isinstance(source, ResultStore) else ResultStore._existing_source(source)
            for source in sources
        ]
        snapshots = []
        for store in resolved:
            with store._locked():
                snapshots.append((store, _read_file(store.path)))
        with self._locked():
            merged = _read_file(self.path)
            before = len(merged)
            for store, incoming in snapshots:
                for key, record in incoming.items():
                    if key in merged and merged[key] != record:
                        raise MergeConflictError(f"conflicting payloads for key {key}")
                    merged[key] = record
            adopted = len(merged) - before
            partials = {k: r for k, r in merged.items() if _is_shard_record(r)}
            parents, consumed, assembled, pending = _assemble_shard_groups(
                partials, lambda key: merged.get(key, _ABSENT)
            )
            for key in consumed:
                del merged[key]
            merged.update(parents)
            self._rewrite(merged, {k: r for k, r in merged.items() if _is_shard_record(r)})
        return (len(merged), adopted, assembled, pending)


def _read_file(path: str) -> dict:
    """Every record of a store file, read by a fresh handle."""
    fresh = ResultStore.at(path)
    return {key: fresh.get(key) for key in fresh.keys()}


def _report(report) -> tuple:
    return (report.records, report.adopted, report.assembled, report.pending_shards)


def _file_bytes(store: ResultStore) -> bytes:
    if not os.path.exists(store.path):
        return b""
    with open(store.path, "rb") as handle:
        return handle.read()


def _shard(parent: str, index: int, count: int, variant: int = 0) -> tuple[str, dict]:
    """Shard ``index`` of ``count`` of a 4-trial batch; ``variant`` 1 disagrees."""
    times = [3, 5, 7, 11] if parent == "P0" else [2, 4, 6, 8]
    record = {
        "label": f"batch {parent}",
        "num_nodes": 8,
        "flooding_times": [t + variant for t in times[index::count]],
        "backend": "set",
        "parent_key": parent,
        "shard": {"index": index, "count": count, "num_trials": 4},
    }
    return f"{parent}/{index}of{count}", record


_KEYS = ["k0", "k1", "k2", "P0", "P1"]
_plain = st.tuples(st.sampled_from(_KEYS), st.integers(0, 2).map(lambda v: {"value": v}))
_partial = st.builds(
    lambda parent, count, index, variant: _shard(parent, index % count, count, variant),
    st.sampled_from(["P0", "P1"]),
    st.sampled_from([1, 2, 2, 3]),
    st.integers(0, 2),
    st.sampled_from([0, 0, 0, 1]),
)
_entry = st.one_of(_plain, _partial, _partial)
_handle = st.sampled_from([0, 1])
_operation = st.one_of(
    st.tuples(st.just("put"), _handle, _entry),
    st.tuples(
        st.just("merge"), _handle, st.lists(st.lists(_entry, max_size=3), min_size=1, max_size=2)
    ),
    st.tuples(st.just("merge"), _handle, st.just([])),
    st.tuples(st.just("compact"), _handle),
    st.tuples(st.just("torn"), st.sampled_from([b'{"key": "torn", "record": {"v', b"{", b'{"ke'])),
)


class TestMergeOracle:
    """Random put/merge/compact/torn-tail sequences on two handles to one file."""

    @given(st.lists(_operation, min_size=1, max_size=14))
    @settings(max_examples=120, deadline=None)
    def test_incremental_merge_matches_full_rescan(self, operations):
        with tempfile.TemporaryDirectory() as root:
            new = [ResultStore(f"{root}/new"), ResultStore(f"{root}/new")]
            old = [FullRescanStore(f"{root}/old"), FullRescanStore(f"{root}/old")]
            for step, operation in enumerate(operations):
                kind = operation[0]
                if kind == "put":
                    _, which, (key, record) = operation
                    new[which].put(key, record)
                    old[which].put(key, record)
                elif kind == "merge":
                    _, which, contents = operation
                    sources = []
                    for number, entries in enumerate(contents):
                        source = ResultStore(f"{root}/source-{step}-{number}")
                        source.touch()
                        for key, record in entries:
                            source.put(key, record)
                        sources.append(source.path)
                    outcomes = []
                    for store in (new[which], old[which]):
                        try:
                            result = store.merge(*sources)
                        except MergeConflictError:
                            result = "conflict"
                        outcomes.append(result)
                    got, want = outcomes
                    if want == "conflict":
                        assert got == "conflict"
                        # A failed merge leaves the full-rescan handle's index
                        # as it was, while the incremental one has caught up
                        # with the file: both are valid reads, so both start
                        # over before the views are compared again.
                        new[which].refresh()
                        old[which].refresh()
                    else:
                        assert _report(got) == want
                elif kind == "compact":
                    _, which = operation
                    assert new[which].compact() >= 0
                    old[which].compact()
                elif kind == "torn":
                    for store in (new[0], old[0]):
                        with open(store.path, "ab") as handle:
                            handle.write(operation[1])
                for which in (0, 1):
                    assert len(new[which]) == len(old[which])
                    for key in [*_KEYS, *(f"P{p}/{i}of{k}" for p in (0, 1) for k in (1, 2, 3)
                                          for i in range(k))]:
                        assert new[which].get(key) == old[which].get(key), (step, key)
            new[0].compact()
            old[0].compact()
            assert _file_bytes(new[0]) == _file_bytes(old[0])


class TestIncrementalMerge:
    def _store_of(self, directory, count: int) -> ResultStore:
        writer = ResultStore(directory)
        for index in range(count):
            writer.put(f"r{index:03d}", {"value": index, "trials": list(range(16))})
        return ResultStore(directory)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_fill_merge_neither_rescans_nor_rewrites(self, tmp_path, monkeypatch, shards):
        store = self._store_of(tmp_path / "store", 200)
        assert len(store) == 200  # a server's first lookup scans once
        before = _file_bytes(store)
        scanned, rewritten = [], []
        original_scan, original_rewrite = ResultStore._scan, ResultStore._rewrite

        def scan(handle):
            scanned.append(handle.path)
            return original_scan(handle)

        def rewrite(handle, index, partials):
            rewritten.append(handle.path)
            return original_rewrite(handle, index, partials)

        monkeypatch.setattr(ResultStore, "_scan", scan)
        monkeypatch.setattr(ResultStore, "_rewrite", rewrite)
        for parent in ("P0", "P1", "P2"):
            source = ResultStore(tmp_path / f"job-{parent}")
            for index in range(shards):  # a whole group in one fill
                source.put(*_shard(parent, index, shards))
            report = store.merge(source)
            assert (report.adopted, report.assembled, report.pending_shards) == (shards, 1, 0)
            assert len(store.get(parent)["flooding_times"]) == 4
        assert store.path not in scanned
        assert rewritten == []
        after = _file_bytes(store)
        assert after.startswith(before)
        assert len(after.splitlines()) == 203

    def test_replaced_file_is_rescanned(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = ResultStore(tmp_path / "a")
        first.put("k1", {"value": 1})
        store.merge(first)
        other = ResultStore(tmp_path / "store")
        other.put("k0", {"value": 0})
        inode = os.stat(store.path).st_ino
        other.compact()
        assert os.stat(store.path).st_ino != inode
        # Written after the compaction, so only the new file holds it.
        other.put("k3", {"value": 3})
        second = ResultStore(tmp_path / "b")
        second.put("k2", {"value": 2})
        report = store.merge(second)
        assert report.records == 4
        assert [store.get(f"k{v}") for v in range(4)] == [{"value": v} for v in range(4)]
        assert len(ResultStore(tmp_path / "store")) == 4

    def test_line_still_being_appended_is_read_once_complete(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k0", {"value": 0})
        line = json.dumps({"key": "k1", "record": {"value": 1}}, sort_keys=True) + "\n"
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(line[:10])  # another writer is mid-line
        reader = ResultStore(tmp_path / "store")
        assert len(reader) == 1
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(line[10:])  # ... and finishes it
        source = ResultStore(tmp_path / "source")
        source.put("k2", {"value": 2})
        assert reader.merge(source).records == 3
        assert reader.get("k1") == {"value": 1}

    def test_pending_partial_in_the_file_forces_a_counted_rewrite(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for index in range(2):
            source = ResultStore(tmp_path / f"shard{index}")
            source.put(*_shard("P0", index, 2))
            instance = telemetry.activate(telemetry.Telemetry(process="merge-test"))
            try:
                report = store.merge(source)
                counters = instance.metrics_snapshot()["counters"]
            finally:
                telemetry.deactivate(instance)
            if index == 0:
                assert report.pending_shards == 1
                assert "store.merge.rewrites" not in counters
            else:
                assert (report.assembled, report.pending_shards) == (1, 0)
                assert counters["store.merge.rewrites"] == 1
        assert len(_file_bytes(store).splitlines()) == 1
        assert list(ResultStore(tmp_path / "store").keys()) == ["P0"]


class TestTornTail:
    def test_put_after_a_torn_line_keeps_its_record(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", {"value": 1})
        with open(store.path, "ab") as handle:
            handle.write(b'{"key": "torn", "record": {"v')
        store.put("b", {"value": 2})
        instance = telemetry.activate(telemetry.Telemetry(process="store-test"))
        try:
            fresh = ResultStore(tmp_path)
            assert fresh.get("a") == {"value": 1}
            assert fresh.get("b") == {"value": 2}
            assert instance.metrics_snapshot()["counters"]["store.scan.corrupt"] == 1
        finally:
            telemetry.deactivate(instance)
        assert fresh.compact() == 1
        assert len(ResultStore(tmp_path)) == 2

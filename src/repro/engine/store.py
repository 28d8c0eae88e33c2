"""Persistent, content-addressed storage of engine results.

The store is a single append-only JSONL file: one record per line, each
carrying the content hash of the trial spec that produced it (model + trial
parameters + seed material) and the stored payload.  Re-running a sweep with
the same spec and seed therefore costs one dictionary lookup instead of a
simulation, and reporting tools can regenerate their output offline from the
file alone.

Keys are computed with :meth:`ResultStore.compute_key` — a SHA-256 over the
canonical (sorted-keys) JSON encoding of the token — so any change to the
model parameters, trial count, source, step cap or seed invalidates the
entry naturally by changing its address.  A batch key's per-trial seeds are
written in closed form from a :class:`SeedRange` (O(1) Python objects, not
one spawned ``SeedSequence`` per trial), byte-identical to encoding the
spawned seeds.  Duplicate keys are legal in the file; the *last* record
wins, which doubles as a crude update mechanism.

The file is scanned exactly once, lazily, on the first lookup — every later
``get``/``put`` is an in-memory dictionary operation — and
:meth:`ResultStore.compact` rewrites the file with one line per live key,
dropping superseded duplicates and corrupt/truncated lines.

Concurrency
-----------
Several processes may share one store file (that is the whole point of
sharded execution).  Every mutation is serialised through an ``fcntl`` lock
on a sidecar ``<file>.lock``: appends take the lock and open the data file
*after* acquiring it (so they always append to the current inode, never to a
file that a concurrent :meth:`compact` has just replaced), and ``compact``
re-scans the file from disk under the same lock instead of trusting the
lazily built in-memory index — records appended by other processes after
this instance's lazy scan are therefore never dropped.  Reads stay lock-free:
a stale in-memory index can at worst miss a record another process just
wrote, which costs a recomputation, never data.

Because the keys are content hashes of the full spec (location-independent),
stores written on different machines can be unioned mechanically;
:meth:`ResultStore.merge` does exactly that, reassembling sharded partial
batches (see :mod:`repro.engine.shard`) and refusing to merge conflicting
payloads for the same key.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

import numpy as np

from repro.stats.sequential import merge_sketch_payloads
from repro.telemetry import core as telemetry

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


def jsonify(value):
    """Recursively convert numpy scalars/arrays so ``json`` can encode them."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _canonical(value) -> str:
    """Canonical JSON text of an already-jsonified value (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SeedRange:
    """The per-trial seeds of a batch as seed material plus a count.

    Spawning ``count`` children from a ``SeedSequence`` gives child ``i`` the
    parent's entropy and the spawn key ``spawn_key + (first + i,)``, where
    ``first`` is the parent's ``n_children_spawned``.  So the seeds' JSON
    identity (what :func:`repro.engine.shard.seed_token` encodes) is a pure
    function of these four values, and :attr:`text` writes it directly.
    """

    entropy: object
    spawn_key: tuple
    first: int
    count: int

    @classmethod
    def of(cls, material, count: int) -> Optional["SeedRange"]:
        """The range ``spawn_seed_sequences(material, count)`` would spawn.

        ``None`` for ``Generator`` and ``None`` material: those have no
        closed form (spawning advances the generator, or draws fresh OS
        entropy), so their children must really be spawned.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if isinstance(material, np.random.SeedSequence):
            seq = material
        elif isinstance(material, (int, np.integer)):
            # Constructed for its validation (negative seeds raise as before).
            seq = np.random.SeedSequence(int(material))
        else:
            return None
        spawn_key = tuple(int(k) for k in seq.spawn_key)
        return cls(seq.entropy, spawn_key, int(seq.n_children_spawned), int(count))

    @cached_property
    def text(self) -> str:
        """Canonical JSON text of the seeds' ``seed_token`` list."""
        entropy = self.entropy
        if isinstance(entropy, (list, tuple)):
            entropy_text = "[" + ",".join(str(int(word)) for word in entropy) + "]"
        else:
            entropy_text = str(int(entropy))
        head = '{"entropy":' + entropy_text + ',"spawn_key":['
        head += "".join(f"{key}," for key in self.spawn_key)
        indices = range(self.first, self.first + self.count)
        return "[" + ",".join(f"{head}{index}]}}" for index in indices) + "]"


class MergeConflictError(RuntimeError):
    """Two stores carry different payloads for the same content key."""


@dataclass(frozen=True)
class MergeReport:
    """Summary of one :meth:`ResultStore.merge` call.

    Attributes
    ----------
    records:
        Live records in the merged store after the merge.
    adopted:
        Records taken from the source stores that were new to this store.
    assembled:
        Full batches reassembled from complete groups of shard partials.
    pending_shards:
        Shard partial records kept because their group is still incomplete
        (a later merge can complete them).
    """

    records: int
    adopted: int
    assembled: int
    pending_shards: int


def _is_shard_record(record) -> bool:
    """Whether a stored payload is a well-formed shard partial.

    Requires every field assembly reads (see :func:`_assemble_shard_groups`),
    so malformed or foreign records are carried through a merge verbatim
    instead of crashing it.
    """
    if not isinstance(record, dict) or "parent_key" not in record:
        return False
    shard = record.get("shard")
    if not isinstance(shard, dict) or not isinstance(record.get("flooding_times"), list):
        return False
    try:
        int(shard["index"])
        int(shard["count"])
        int(shard["num_trials"])
    except (KeyError, TypeError, ValueError):
        return False
    return True


class ResultStore:
    """JSONL-backed map from spec content hashes to result payloads.

    Parameters
    ----------
    directory:
        Directory holding the store file (created if missing).
    filename:
        Name of the JSONL file inside ``directory``.
    """

    def __init__(self, directory: str, filename: str = "results.jsonl") -> None:
        self._directory = str(directory)
        os.makedirs(self._directory, exist_ok=True)
        self._path = os.path.join(self._directory, filename)
        self._lock_path = self._path + ".lock"
        # Built lazily on the first lookup; None means "not scanned yet".
        self._index: Optional[dict[str, dict]] = None

    @classmethod
    def at(cls, path: Union[str, os.PathLike]) -> "ResultStore":
        """Store addressed by a path: a ``.jsonl`` file or a directory.

        ``shard0/`` means the default ``results.jsonl`` inside ``shard0/``;
        ``out.jsonl`` means that exact file.  This is what the CLI's
        ``merge-results`` arguments go through.
        """
        path = str(path)
        if path.endswith(".jsonl"):
            directory, filename = os.path.split(path)
            return cls(directory or ".", filename)
        return cls(path)

    @classmethod
    def _existing_source(cls, path: Union[str, os.PathLike]) -> "ResultStore":
        """``at(path)``, but the store file must already exist.

        Merge sources go through this: a typo'd shard path must fail loudly,
        not be silently treated as an empty store (and ``at`` would even
        create the directory as a side effect).
        """
        text = str(path)
        file_path = text if text.endswith(".jsonl") else os.path.join(text, "results.jsonl")
        if not os.path.exists(file_path):
            raise FileNotFoundError(f"no result store at {text} (expected {file_path})")
        return cls.at(text)

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    @staticmethod
    def compute_key(token: dict) -> str:
        """SHA-256 content hash of a token dict (canonical JSON encoding).

        A :class:`SeedRange` under ``"seeds"`` contributes its closed-form
        :attr:`~SeedRange.text` at its sorted-key position in the encoding
        of the rest of the token, so the key is byte-identical to hashing
        the token with the spawned seeds' ``seed_token`` list there.
        """
        tel = telemetry.active()
        started = time.perf_counter() if tel is not None else 0.0
        seeds = token.get("seeds")
        if isinstance(seeds, SeedRange):
            rest = jsonify({k: v for k, v in token.items() if k != "seeds"})
            fields = {name: _canonical(value) for name, value in rest.items()}
            fields["seeds"] = seeds.text
            items = sorted(fields.items())
            canonical = "{" + ",".join(f"{_canonical(name)}:{text}" for name, text in items) + "}"
        else:
            canonical = _canonical(jsonify(token))
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        if tel is not None:
            tel.timing("store.key_seconds", time.perf_counter() - started)
        return key

    # ------------------------------------------------------------------ #
    # locking
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _locked(self):
        """Exclusive inter-process lock over the store file's mutations.

        The lock lives on a sidecar file, not the data file itself: compact
        replaces the data file's inode, so a lock on the old inode would not
        exclude writers that open the file afterwards.  The sidecar is stable
        across compactions.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self._lock_path, "a", encoding="utf-8") as lock:
            tel = telemetry.active()
            if tel is None:
                fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
            else:
                waited = time.perf_counter()
                fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
                tel.timing("store.lock_wait_seconds", time.perf_counter() - waited)
            try:
                yield
            finally:
                fcntl.flock(lock.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _ensure_index(self) -> dict[str, dict]:
        """Scan the file into the in-memory key index (once, on first use)."""
        if self._index is None:
            self._index, _ = self._scan()
        return self._index

    def _scan(self) -> tuple[dict[str, dict], int]:
        """Parse the file from disk: ``(key -> record, non-empty lines)``."""
        index: dict[str, dict] = {}
        lines = corrupt = 0
        if not os.path.exists(self._path):
            return index, 0
        with open(self._path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                lines += 1
                # A run killed mid-append can leave a truncated last line;
                # treat unreadable lines as absent entries (they will simply
                # be recomputed) instead of refusing to load the store.
                try:
                    entry = json.loads(line)
                    index[entry["key"]] = entry["record"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    corrupt += 1
        if corrupt:
            telemetry.count("store.scan.corrupt", corrupt)
        return index, lines

    def refresh(self) -> None:
        """Drop the in-memory index; the next lookup re-scans the file."""
        self._index = None

    @property
    def path(self) -> str:
        """Path of the backing JSONL file."""
        return self._path

    def touch(self) -> None:
        """Ensure the backing file exists (as an empty store if new).

        A shard that happens to own zero jobs still needs a store file on
        disk so downstream tooling (artifact upload, ``merge-results``) can
        treat every shard uniformly.
        """
        if not os.path.exists(self._path):
            with self._locked():
                with open(self._path, "a", encoding="utf-8"):
                    pass

    def get(self, key: str) -> Optional[dict]:
        """The stored record for ``key``, or ``None`` on a cache miss."""
        return self._ensure_index().get(key)

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (appended durably, last write wins).

        The append happens under the store lock and the data file is opened
        after the lock is taken, so concurrent writers never interleave
        partial lines and never append to a just-compacted stale inode.
        """
        record = jsonify(record)
        line = json.dumps({"key": key, "record": record}, sort_keys=True) + "\n"
        # The index is read and updated under the lock that ``merge`` and
        # ``compact`` swap it under, so the record never lands in a replaced
        # dict.
        with self._locked():
            index = self._ensure_index()
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
            index[key] = record

    def _rewrite(self, index: dict[str, dict]) -> None:
        """Atomically replace the file with one line per ``index`` entry.

        Records are written in sorted-key order, so the on-disk form of a
        given record set is deterministic (merged stores can be compared
        byte-for-byte against reference runs after sorting their lines).
        Callers must hold the store lock.
        """
        temp_path = self._path + ".compact"
        with open(temp_path, "w", encoding="utf-8") as handle:
            for key in sorted(index):
                handle.write(
                    json.dumps({"key": key, "record": index[key]}, sort_keys=True) + "\n"
                )
        os.replace(temp_path, self._path)

    def compact(self) -> int:
        """Rewrite the file with one line per live key; returns lines dropped.

        Superseded duplicates (older writes to the same key) and
        corrupt/truncated lines are removed.  The file is re-scanned from
        disk under the store lock — not served from the lazy in-memory index
        — so records appended by *other* processes since this instance's
        index was built survive the compaction.  The rewrite goes through a
        temporary file and an atomic replace, so a crash mid-compaction
        leaves the original file intact.
        """
        with self._locked():
            index, lines = self._scan()
            self._rewrite(index)
            self._index = index
        return lines - len(index)

    # ------------------------------------------------------------------ #
    # merging
    # ------------------------------------------------------------------ #
    def merge(self, *sources: Union["ResultStore", str, os.PathLike]) -> MergeReport:
        """Union ``sources`` into this store, reassembling sharded batches.

        Records are unioned by content key.  A path source whose store file
        does not exist raises :class:`FileNotFoundError` (a typo'd shard path
        must not silently produce a partial merge).  Two different payloads
        under the same key — in a source, or between a source and this store
        — raise :class:`MergeConflictError` (identical payloads deduplicate
        silently).  Complete groups of shard partials (all ``count`` shards
        of one parent batch, see :mod:`repro.engine.shard`) are reassembled
        into the full batch record under the parent key, and the partials are
        dropped; incomplete groups are kept verbatim so a later merge can
        finish the job.  The merged store is compacted (rewritten with one
        sorted line per live key) before returning.
        """
        resolved = [
            source if isinstance(source, ResultStore) else ResultStore._existing_source(source)
            for source in sources
        ]
        # Each source is scanned fresh from disk under *its own* lock, so a
        # concurrent writer's in-flight append is never seen as a torn (and
        # silently skipped) line.  Source locks are taken one at a time and
        # released before this store's lock, so no two locks are ever held
        # together — no ordering constraints, no deadlock.
        snapshots = []
        for store in resolved:
            with store._locked():
                incoming, _ = store._scan()
            snapshots.append((store, incoming))
        # One lock span for scan -> union -> rewrite: a concurrent put into
        # this store cannot land between the scan and the rewrite and be
        # clobbered.
        with self._locked():
            merged, _ = self._scan()
            before = len(merged)
            for store, incoming in snapshots:
                for key, record in incoming.items():
                    if key in merged and merged[key] != record:
                        raise MergeConflictError(
                            f"conflicting payloads for key {key} while merging "
                            f"{store.path} into {self.path}"
                        )
                    merged[key] = record
            adopted = len(merged) - before
            assembled, pending = _assemble_shard_groups(merged)
            self._rewrite(merged)
            self._index = merged
        telemetry.count("store.merges")
        telemetry.event(
            "store.merge",
            path=self._path,
            sources=len(resolved),
            records=len(merged),
            adopted=adopted,
            assembled=assembled,
            pending_shards=pending,
        )
        return MergeReport(
            records=len(merged),
            adopted=adopted,
            assembled=assembled,
            pending_shards=pending,
        )

    def __contains__(self, key: str) -> bool:
        return key in self._ensure_index()

    def __len__(self) -> int:
        return len(self._ensure_index())

    def keys(self) -> Iterator[str]:
        """Iterate over the stored keys."""
        return iter(self._ensure_index())


def _assemble_shard_groups(merged: dict[str, dict]) -> tuple[int, int]:
    """Reassemble complete shard groups in ``merged`` (mutated in place).

    Returns ``(assembled_batches, pending_shard_records)``.  A group is the
    set of shard partials sharing one ``(parent_key, count)`` pair; it is
    complete when all ``count`` shard indices are present with consistent
    metadata and trial counts.  Assembly interleaves the partial
    ``flooding_times`` back into trial order (shard ``i`` of ``K`` holds
    trials ``i, i+K, i+2K, ...``), producing a record bit-identical to what
    an unsharded run of the same spec would have stored.
    """
    groups: dict[tuple[str, int], dict[int, tuple[str, dict]]] = {}
    for key, record in merged.items():
        if not _is_shard_record(record):
            continue
        shard = record["shard"]
        index, count = int(shard["index"]), int(shard["count"])
        groups.setdefault((record["parent_key"], count), {})[index] = (key, record)

    assembled = 0
    pending = 0
    for (parent_key, count), members in groups.items():
        if set(members) != set(range(count)):
            pending += len(members)
            continue
        totals = {int(rec["shard"]["num_trials"]) for _, rec in members.values()}
        if len(totals) != 1:
            raise MergeConflictError(
                f"shards of parent {parent_key} disagree on the batch trial count"
            )
        total = totals.pop()
        full: list = [None] * total
        identity: Optional[tuple] = None
        backends = set()
        for index, (_, record) in members.items():
            expected = len(range(index, total, count))
            times = record["flooding_times"]
            if len(times) != expected:
                raise MergeConflictError(
                    f"shard {index}/{count} of parent {parent_key} holds "
                    f"{len(times)} trials, expected {expected}"
                )
            full[index::count] = times
            fields = (record.get("label"), record.get("num_nodes"), record.get("tags"))
            if identity is None:
                identity = fields
            elif identity != fields:
                raise MergeConflictError(
                    f"shards of parent {parent_key} disagree on batch metadata"
                )
            backends.add(record.get("backend"))
        assert identity is not None
        label, num_nodes, tags = identity
        # The kernel choice never changes samples (the engine's core
        # contract), so shards executed with different backends still
        # assemble; the heterogeneous provenance is recorded as "mixed".
        backend = backends.pop() if len(backends) == 1 else "mixed"
        parent_record = {
            "label": label,
            "num_nodes": num_nodes,
            "flooding_times": full,
            "backend": backend,
        }
        if tags is not None:
            parent_record["tags"] = tags
        # Sketch fan-in: when every shard embeds a sketch, the parent gets
        # their merge — byte-identical to the sketch an unsharded run embeds,
        # because shard reservoirs share the parent's salt and priorities
        # (see repro.stats.sequential).  A group with partial sketch coverage
        # assembles without one rather than publishing a sketch of a subset.
        sketches = [rec.get("sketch") for _, (_, rec) in sorted(members.items())]
        if all(s is not None for s in sketches):
            parent_record["sketch"] = merge_sketch_payloads(sketches)
        if parent_key in merged and merged[parent_key] != parent_record:
            raise MergeConflictError(
                f"assembled batch for parent {parent_key} conflicts with an "
                f"existing record under that key"
            )
        merged[parent_key] = parent_record
        for shard_key, _ in members.values():
            del merged[shard_key]
        assembled += 1
    return assembled, pending

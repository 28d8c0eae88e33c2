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
:meth:`ResultStore.compact` rewrites the file with one line per live key in
sorted-key order (its canonical form), dropping superseded duplicates and
corrupt/truncated lines.

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
payloads for the same key.  A merge costs what it adds, not what the store
holds: under the lock it reads only the bytes appended since this handle
last read the file (the file stays open, so a compaction by another handle,
which replaces the file, shows as a new inode and gets a full rescan), and
it appends its new records instead of rewriting the file whenever no line
already in the file has to go.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

import numpy as np

from repro.telemetry import core as telemetry

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


#: exact types ``jsonify`` returns as they are (subclasses take the slow path)
_PLAIN = frozenset((str, int, float, bool, type(None)))


def jsonify(value):
    """Recursively convert numpy scalars/arrays so ``json`` can encode them.

    Plain scalars (exact built-in types) come back as they are, a sequence
    of them is copied in one C-level pass and ``str`` keys skip ``str()``.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        return {k if type(k) is str else str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if _PLAIN.issuperset(map(type, value)):
            return list(value)
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 0 and value.dtype.kind in "biuf":  # tolist() gives one scalar
            return value.tolist()
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
        if not self.count:
            return "[]"
        entropy = self.entropy
        if isinstance(entropy, (list, tuple)):
            entropy_text = "[" + ",".join(str(int(word)) for word in entropy) + "]"
        else:
            entropy_text = str(int(entropy))
        head = '{"entropy":' + entropy_text + ',"spawn_key":['
        head += "".join(f"{key}," for key in self.spawn_key)
        # repr of an int is its decimal text, without str's constructor call.
        indices = map(repr, range(self.first, self.first + self.count))
        return "[" + head + ("]}," + head).join(indices) + "]}]"


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


#: marks a key absent from a mapping (a stored record may itself be ``null``)
_ABSENT = object()


def _line(key: str, record) -> str:
    """The store line of one record."""
    return json.dumps({"key": key, "record": record}, sort_keys=True) + "\n"


def _track(partials: dict, key: str, record) -> None:
    """Keep ``partials`` equal to the shard partials among an index's records."""
    if _is_shard_record(record):
        partials[key] = record
    elif partials:
        partials.pop(key, None)


def _parse(lines: list[bytes], index: dict, partials: dict) -> tuple[int, int]:
    """Parse store lines into ``index`` (last write wins): ``(non-empty, corrupt)``.

    A run killed mid-append can leave a truncated line; unreadable lines are
    treated as absent entries (they will simply be recomputed) instead of
    refusing to load the store.
    """
    count = corrupt = 0
    for line in lines:
        if not line.strip():
            continue
        count += 1
        try:
            entry = json.loads(line)
            key, record = entry["key"], entry["record"]
            index[key] = record
        except (ValueError, KeyError, TypeError):
            corrupt += 1
            continue
        _track(partials, key, record)
    return count, corrupt


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
        # The shard partials among the index's records: what a merge assembles.
        self._partials: dict[str, dict] = {}
        # The file the index was read from, held open so that no other file
        # can reuse its inode, and the offset just past its last line read.
        self._file = None
        self._close_file: Optional[weakref.finalize] = None
        self._offset = 0
        # Whether a read met corrupt lines, which only a rewrite drops.
        self._damaged = False

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
            self._scan()
        return self._index

    def _hold(self, handle) -> None:
        """Keep ``handle`` open as the file the index is read from."""
        if self._close_file is not None:
            self._close_file()
        self._file = handle
        self._close_file = None if handle is None else weakref.finalize(self, handle.close)

    def _read(self, data: bytes, tail: bool) -> tuple[int, bool]:
        """Parse ``data``, read at ``self._offset``, into the index.

        Returns ``(non-empty lines, whether data ends in a torn line)``.  The
        offset advances past complete lines only: the bytes after the last
        newline may be a line another process is still appending, so they
        are read again once complete.  ``tail`` parses them as a line too,
        but an unreadable tail does not count as damage: it may be in flight.
        """
        lines = data.split(b"\n")
        torn = lines.pop()
        self._offset += len(data) - len(torn)
        count, corrupt = _parse(lines, self._index, self._partials)
        self._damaged = self._damaged or corrupt > 0
        if tail and torn:
            more, unreadable = _parse([torn], self._index, self._partials)
            count, corrupt = count + more, corrupt + unreadable
        if corrupt:
            telemetry.count("store.scan.corrupt", corrupt)
        return count, bool(torn)

    def _scan(self) -> tuple[int, bool]:
        """Read the whole file into a fresh index: ``(non-empty lines, torn)``.

        The file stays open for :meth:`_catch_up`.
        """
        self._index, self._partials = {}, {}
        self._offset, self._damaged = 0, False
        try:
            handle = open(self._path, "rb")
        except FileNotFoundError:
            self._hold(None)
            return 0, False
        self._hold(handle)
        return self._read(handle.read(), tail=True)

    def _catch_up(self) -> bool:
        """Bring the index up to date with the file; the caller holds the lock.

        Reads only the bytes appended since this handle last read the file.
        Rescans in full when there is no index yet, or the file was replaced
        (another handle compacted it: the held file's inode is no longer
        the path's) or shrank.  Returns whether the file ends in a torn
        line: no append is in flight under the lock, so those bytes are the
        remains of a writer that crashed mid-line.
        """
        if self._index is not None and self._file is not None:
            try:
                current = os.stat(self._path)
            except FileNotFoundError:
                current = None
            held = os.fstat(self._file.fileno())
            if (
                current is not None
                and (current.st_dev, current.st_ino) == (held.st_dev, held.st_ino)
                and current.st_size >= self._offset
            ):
                self._file.seek(self._offset)
                return self._read(self._file.read(), tail=False)[1]
        return self._scan()[1]

    def refresh(self) -> None:
        """Drop the in-memory index; the next lookup re-scans the file."""
        self._index = None
        self._hold(None)

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

    def _append(self, text: str) -> tuple[int, int]:
        """Append complete lines (the caller holds the lock): their byte span.

        A file that does not end in a newline (a writer crashed mid-line)
        gets one first, so the torn line stays one corrupt line instead of
        swallowing the first appended record.
        """
        data = text.encode("utf-8")
        with open(self._path, "ab+") as handle:
            start = handle.seek(0, os.SEEK_END)
            if start and os.pread(handle.fileno(), 1, start - 1) != b"\n":
                data = b"\n" + data
            handle.write(data)
        return start, start + len(data)

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (appended durably, last write wins).

        The append happens under the store lock and the data file is opened
        after the lock is taken, so concurrent writers never interleave
        partial lines and never append to a just-compacted stale inode.
        """
        record = jsonify(record)
        line = _line(key, record)
        # The index is read and updated under the lock that ``merge`` and
        # ``compact`` swap it under, so the record never lands in a replaced
        # dict.
        with self._locked():
            index = self._ensure_index()
            self._append(line)
            index[key] = record
            _track(self._partials, key, record)

    def _rewrite(self, index: dict[str, dict], partials: dict[str, dict]) -> None:
        """Atomically replace the file with one line per ``index`` entry.

        Records are written in sorted-key order, so the on-disk form of a
        given record set is deterministic (merged stores can be compared
        byte-for-byte against reference runs after sorting their lines).
        ``index`` (with its shard ``partials``) becomes this handle's index,
        read from the new file from now on.  Callers must hold the store
        lock.
        """
        temp_path = self._path + ".compact"
        with open(temp_path, "w", encoding="utf-8") as handle:
            for key in sorted(index):
                handle.write(_line(key, index[key]))
        os.replace(temp_path, self._path)
        self._hold(open(self._path, "rb"))
        self._index, self._partials = index, partials
        self._offset, self._damaged = os.fstat(self._file.fileno()).st_size, False

    def compact(self) -> int:
        """Rewrite the file in canonical form; returns the lines dropped.

        The canonical form is one line per live key, in sorted-key order:
        superseded duplicates (older writes to the same key) and
        corrupt/truncated lines are removed.  :meth:`merge` appends where it
        can, so this is the step that gives a merged store its canonical
        bytes (``repro merge-results``, ``repro experiment --merge``, fleet
        fan-in and ``repro serve``'s shutdown call it).  The file is
        re-scanned from disk under the store lock — not served from the lazy
        in-memory index — so records appended by *other* processes since
        this instance's index was built survive the compaction.  The rewrite
        goes through a temporary file and an atomic replace, so a crash
        mid-compaction leaves the original file intact.
        """
        with self._locked():
            lines, _ = self._scan()
            dropped = lines - len(self._index)
            self._rewrite(self._index, self._partials)
        return dropped

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
        finish the job.

        The merge costs what it adds.  It reads only what was appended to
        this store since this handle last read it, checks conflicts against
        the index, and assembles only the groups of the incoming partials and
        of the partials this store already holds.  Its new records are
        appended in sorted-key order, so a merge into an empty store writes
        canonical bytes.  The file is rewritten compacted instead when lines
        already in it must go: partials that this merge assembles, or
        corrupt and torn lines.  Otherwise the file is not canonical after a
        merge into a non-empty store; :meth:`compact` makes it so.
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
                store._scan()
                snapshots.append((store, dict(store._index)))
        # One lock span for catch-up -> union -> write: a concurrent put into
        # this store cannot land between the read and the write and be
        # clobbered.
        with self._locked():
            torn = self._catch_up()
            index = self._index
            incoming: dict[str, dict] = {}
            for store, records in snapshots:
                for key, record in records.items():
                    current = incoming[key] if key in incoming else index.get(key, _ABSENT)
                    if current is not _ABSENT and current != record:
                        raise MergeConflictError(
                            f"conflicting payloads for key {key} while merging "
                            f"{store.path} into {self.path}"
                        )
                    incoming[key] = record
            adopted = sum(key not in index for key in incoming)
            partials = dict(self._partials)
            for key, record in incoming.items():
                _track(partials, key, record)
            parents, consumed, assembled, pending = _assemble_shard_groups(
                partials, lambda key: incoming.get(key, index.get(key, _ABSENT))
            )
            changes = {**incoming, **parents, **dict.fromkeys(consumed, _ABSENT)}
            if torn or self._damaged or any(key in index for key in consumed):
                merged, kept = dict(index), dict(self._partials)
                _apply(changes, merged, kept)
                self._rewrite(merged, kept)
                telemetry.count("store.merge.rewrites")
            else:
                added = sorted(
                    key for key, record in changes.items()
                    if record is not _ABSENT and key not in index
                )
                if added:
                    start, stop = self._append("".join(_line(k, changes[k]) for k in added))
                    if self._file is None:  # the append created the file
                        self._hold(open(self._path, "rb"))
                    if start == self._offset:
                        self._offset = stop
                _apply(changes, index, self._partials)
            records = len(self._index)
        telemetry.count("store.merges")
        telemetry.event(
            "store.merge",
            path=self._path,
            sources=len(resolved),
            records=records,
            adopted=adopted,
            assembled=assembled,
            pending_shards=pending,
        )
        return MergeReport(
            records=records,
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


def _apply(changes: dict, index: dict, partials: dict) -> None:
    """Write a merge's ``changes`` (``_ABSENT`` deletes a key) into an index."""
    for key, record in changes.items():
        if record is _ABSENT:
            index.pop(key, None)
            partials.pop(key, None)
        else:
            index[key] = record
            _track(partials, key, record)


def _assemble_shard_groups(
    partials: dict[str, dict], lookup: Callable[[str], object]
) -> tuple[dict[str, dict], list[str], int, int]:
    """Reassemble the complete groups among the shard ``partials``.

    Returns ``(parents, consumed, assembled_batches, pending_shard_records)``:
    the full batch records by parent key, the keys of the partials they
    consumed, the number of groups assembled and the number of partials left
    in incomplete groups.  ``lookup(key)`` is the merged store's record under
    ``key`` (``_ABSENT`` when none); an assembled batch that differs from it
    is a conflict.  A group is the set of shard partials sharing one
    ``(parent_key, count)`` pair; it is complete when all ``count`` shard
    indices are present with consistent metadata and trial counts.  Assembly interleaves the partial
    ``flooding_times`` back into trial order (shard ``i`` of ``K`` holds
    trials ``i, i+K, i+2K, ...``), producing a record bit-identical to what
    an unsharded run of the same spec would have stored.  Only fixed-count
    batches shard (adaptive ones always run whole), so a group assembles
    from its samples and metadata alone.
    """
    groups: dict[tuple[str, int], dict[int, tuple[str, dict]]] = {}
    for key, record in partials.items():
        shard = record["shard"]
        index, count = int(shard["index"]), int(shard["count"])
        groups.setdefault((record["parent_key"], count), {})[index] = (key, record)

    parents: dict[str, dict] = {}
    consumed: list[str] = []
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
        current = parents[parent_key] if parent_key in parents else lookup(parent_key)
        if current is not _ABSENT and current != parent_record:
            raise MergeConflictError(
                f"assembled batch for parent {parent_key} conflicts with an "
                f"existing record under that key"
            )
        parents[parent_key] = parent_record
        consumed.extend(shard_key for shard_key, _ in members.values())
        assembled += 1
    return parents, consumed, assembled, pending

"""Content-addressed on-disk result store with JSON-lines shards.

Layout under one store root::

    shard-00.jsonl .. shard-15.jsonl   canonical shards (compacted)
    pending-<stream>.jsonl             in-flight appends (one per writer)

One record per line::

    {"key": ..., "kind": ..., "fingerprint": ..., "params": ..., "result": ...}

Durability model: every writer (the serial runner, or one worker
process) appends finished records to its *own* pending file and flushes
per record, so concurrent writers never interleave within a line and a
killed run loses at most the line being written.  Loading tolerates that
torn tail — any line that does not parse as a complete record is skipped
and its scenario simply reads as missing, which is exactly what makes a
killed campaign resumable: the rerun executes only the missing keys.

:meth:`CampaignStore.compact` folds pending files into the canonical
shards — records sorted by key, shard chosen by key prefix, written to a
temp file and atomically renamed — so a store's bytes are a pure
function of its record *set*, independent of how many interrupted runs,
workers, or resumes produced it.  That is what makes aggregates (and the
CI-cached store directory) byte-identical across resume histories.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import IO, Iterable

from repro.campaign.spec import ScenarioCase, canonical_json, code_fingerprint

#: Fields every well-formed record carries.
RECORD_FIELDS = ("key", "kind", "fingerprint", "params", "result")

#: Canonical shard files; a record's shard is its key prefix mod this.
N_SHARDS = 16


class StoreBusyError(RuntimeError):
    """Compaction refused: another live writer holds the store's lock.

    Rewriting shards out from under a concurrent appender (a
    ``compact`` or a finishing ``run`` while another ``run`` or its
    pool workers still append to the same store) risks torn
    interleavings; the caller should retry after the writer finishes,
    or skip compaction.
    """


def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temp file + :func:`os.replace`.

    The temp file is private (:func:`tempfile.mkstemp` in the target's
    directory), so concurrent writers of one path never rename each
    other's files away, and a reader never sees a torn file.  On
    ``OSError`` the temp file is removed and the error re-raised.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        Path(tmp).unlink(missing_ok=True)
        raise


def _try_flock(handle) -> bool:
    """Advisory-lock a writer's pending file.

    Returns False only when another live writer holds the lock; where
    locking is unsupported (no ``fcntl``, or a filesystem without
    flock) it returns True and protection degrades to best-effort.
    """
    try:
        import fcntl
    except ImportError:
        return True
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True
    except OSError:
        return False


def _is_live(path: Path) -> bool:
    """True if another process still holds the writer lock on ``path``."""
    try:
        import fcntl

        with open(path) as probe:
            try:
                fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return True
            fcntl.flock(probe.fileno(), fcntl.LOCK_UN)
        return False
    except (ImportError, OSError):
        return False


def make_record(case: ScenarioCase, result) -> dict:
    """The store document for one executed case."""
    return {
        "key": case.key,
        "kind": case.kind,
        "fingerprint": case.fingerprint,
        "params": case.params,
        "result": result,
    }


class CampaignStore:
    """A directory of content-addressed campaign results."""

    def __init__(self, root):
        self.root = Path(root)
        self._index: dict[str, dict] = {}
        self._loaded = False
        self._streams: dict[str, IO[str]] = {}
        #: Lines skipped as torn/corrupt during the last load.
        self.corrupt_lines = 0
        #: True once this process appended records not yet compacted.
        self._dirty = False
        #: Held (shared) while this store has open append streams, so a
        #: concurrent compaction refuses instead of rewriting shards
        #: under us (see :class:`StoreBusyError`).
        self._writer_lock: IO[str] | None = None

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def shard_index(self, key: str) -> int:
        return int(key[:8], 16) % N_SHARDS

    def shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index:02d}.jsonl"

    def pending_path(self, stream: str) -> Path:
        return self.root / f"pending-{stream}.jsonl"

    def _data_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("shard-*.jsonl")) + sorted(
            self.root.glob("pending-*.jsonl")
        )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self) -> dict[str, dict]:
        """Scan every shard and pending file into the in-memory index.

        Torn or corrupt lines (a killed writer's partial append) are
        counted in :attr:`corrupt_lines` and otherwise ignored — their
        scenarios read as missing and get recomputed.
        """
        index: dict[str, dict] = {}
        corrupt = 0
        for path in self._data_files():
            try:
                text = path.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    corrupt += 1
                    continue
                if not isinstance(record, dict) or any(
                    field not in record for field in RECORD_FIELDS
                ):
                    corrupt += 1
                    continue
                index[record["key"]] = record
        self._index = index
        self.corrupt_lines = corrupt
        self._loaded = True
        return index

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.load()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        self._ensure_loaded()
        return key in self._index

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._index)

    def get(self, key: str) -> dict | None:
        self._ensure_loaded()
        return self._index.get(key)

    def result_for(self, case: ScenarioCase):
        """The stored result payload for ``case``, or ``None``."""
        record = self.get(case.key)
        return None if record is None else record["result"]

    def missing(self, cases: Iterable[ScenarioCase]) -> list[ScenarioCase]:
        """The subset of ``cases`` the store holds no record for."""
        self._ensure_loaded()
        return [case for case in cases if case.key not in self._index]

    def records(self) -> list[dict]:
        """All records, sorted by key (deterministic aggregate order)."""
        self._ensure_loaded()
        return [self._index[key] for key in sorted(self._index)]

    def stale_records(self, fingerprint: str | None = None) -> list[dict]:
        """Records whose fingerprint differs from the current code's.

        Stale records are unreachable (current cases hash to new keys);
        they linger harmlessly until :meth:`compact` prunes them.
        """
        current = fingerprint if fingerprint is not None else code_fingerprint()
        return [
            record for record in self.records() if record["fingerprint"] != current
        ]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def writer_lock_path(self) -> Path:
        return self.root / "writers.lock"

    def _acquire_writer_share(self) -> None:
        """Advertise this process as a live writer (shared flock).

        Every appender holds a shared lock on one well-known file;
        :meth:`compact` takes the same lock exclusively, so compaction
        and appends serialize — two concurrent CLI ``run`` processes
        against one store cannot interleave torn shard rewrites.  If a
        compaction is mid-flight the acquire blocks until it finishes
        (compaction is bounded and atomic).  Degrades to a no-op where
        ``fcntl`` is unavailable.
        """
        if self._writer_lock is not None:
            return
        try:
            import fcntl
        except ImportError:
            return
        handle = open(self.writer_lock_path(), "a")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_SH)
        except OSError:
            handle.close()
            return
        self._writer_lock = handle

    def _try_exclusive_writer_lock(self):
        """The compaction side: ``None`` if any writer is live.

        Returns a held handle to close when done, or the string
        ``"unsupported"`` where flock cannot arbitrate.
        """
        try:
            import fcntl
        except ImportError:
            return "unsupported"
        self.root.mkdir(parents=True, exist_ok=True)
        handle = open(self.writer_lock_path(), "a")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            return None
        return handle

    def _open_stream(self, stream: str) -> IO[str]:
        """Open (and writer-lock) a pending file for ``stream``.

        If another live writer already owns that stream name — two
        processes both appending as ``serial`` on a shared store — fall
        back to a process-unique name, so no writer's file can be
        unlinked from under it by a concurrent :meth:`compact`.
        """
        handle = open(self.pending_path(stream), "a")
        if _try_flock(handle):
            return handle
        handle.close()
        for attempt in range(3):
            suffix = f"{os.getpid()}" + (f"-{attempt}" if attempt else "")
            handle = open(self.pending_path(f"{stream}-{suffix}"), "a")
            if _try_flock(handle):
                return handle
            handle.close()
        # Locking is evidently unreliable here; degrade to best-effort.
        return open(self.pending_path(f"{stream}-{os.getpid()}"), "a")

    def append(self, record: dict, stream: str = "serial") -> None:
        """Durably append one record to this writer's pending file."""
        handle = self._streams.get(stream)
        if handle is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._acquire_writer_share()
            handle = self._open_stream(stream)
            self._streams[stream] = handle
        handle.write(canonical_json(record) + "\n")
        handle.flush()
        if self._loaded:
            self._index[record["key"]] = record
        self._dirty = True

    def close(self) -> None:
        for handle in self._streams.values():
            try:
                handle.close()
            except OSError:
                pass
        self._streams.clear()
        if self._writer_lock is not None:
            try:
                self._writer_lock.close()  # closing the fd drops the flock
            except OSError:
                pass
            self._writer_lock = None

    def compact(self, prune_stale: bool = False) -> None:
        """Fold pending files into canonical, byte-deterministic shards.

        Raises :class:`StoreBusyError` while any *other* writer holds
        the store's shared writer lock — rewriting shards under a live
        appender is exactly the torn-interleaving hazard the lock
        exists to rule out (this store's own streams are closed first,
        so self-compaction is always allowed).  With the exclusive lock
        held, re-reads everything on disk (killed writers' pending files
        included), writes each shard sorted by key via temp-file +
        atomic rename, then removes the pending files.  A crash mid-way
        leaves at worst duplicate records across shard and pending
        files, which the key-indexed load collapses.
        """
        self.close()
        guard = self._try_exclusive_writer_lock()
        if guard is None:
            raise StoreBusyError(
                f"compaction refused: another writer holds the lock on "
                f"{self.root}"
            )
        try:
            self._compact_locked(prune_stale)
        finally:
            if guard != "unsupported":
                guard.close()

    def _compact_locked(self, prune_stale: bool) -> None:
        self.load()
        records = self.records()
        if prune_stale:
            current = code_fingerprint()
            records = [r for r in records if r["fingerprint"] == current]
            self._index = {r["key"]: r for r in records}
        by_shard: dict[int, list[dict]] = {}
        for record in records:
            by_shard.setdefault(self.shard_index(record["key"]), []).append(record)
        self.root.mkdir(parents=True, exist_ok=True)
        for index in range(N_SHARDS):
            shard_records = by_shard.get(index, [])
            target = self.shard_path(index)
            if not shard_records:
                target.unlink(missing_ok=True)
                continue
            write_atomic(target, "".join(
                canonical_json(record) + "\n" for record in shard_records
            ))
        for pending in self.root.glob("pending-*.jsonl"):
            if _is_live(pending):
                continue
            pending.unlink(missing_ok=True)
        self._dirty = False

    @property
    def dirty(self) -> bool:
        """True if uncompacted pending data exists (here or on disk)."""
        return self._dirty or any(self.root.glob("pending-*.jsonl"))

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        self._ensure_loaded()
        return {
            "records": len(self._index),
            "corrupt_lines": self.corrupt_lines,
            "shard_files": len(list(self.root.glob("shard-*.jsonl")))
            if self.root.is_dir()
            else 0,
            "pending_files": len(list(self.root.glob("pending-*.jsonl")))
            if self.root.is_dir()
            else 0,
        }

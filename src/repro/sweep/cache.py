"""Content-addressed, on-disk result cache (multi-writer safe).

Results are keyed by :attr:`repro.sweep.spec.Job.key` — a sha256 over the
job's parameters and the code-model version — and appended to a JSONL
file, one record per line, so repeated or resumed sweeps are near-free:
any job whose key is already present is served from disk instead of
re-evaluated.  Only successful records are cached; failures stay out so
a later run retries them.

The file is a :class:`Journal`, the one multi-writer primitive the
engine's stage memo and the analytic calibration store share: several
engines, worker processes, or service instances may append to one cache
directory at once.  Records reach the file in single ``O_APPEND`` writes
under an advisory ``flock`` on a ``.lock`` sidecar, after the tail other
writers appended has been folded in — no torn lines, no duplicates — and
a torn final line (a crash) is skipped on load while everything before
it survives, and the next append starts a new line after it.  A
:meth:`ResultCache.put` writes at once; inside an
:meth:`~repro.engine.Engine.run_many` batch the engine queues its
records and memos and writes each queue as one append when the batch
ends or is closed, and at least once a second while it streams.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Iterator, Optional

try:  # advisory file locks: POSIX only; the cache degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

# Cooperative hooks for the runtime race detector (REPRO_RACE_CHECK=1).
# When disabled each note_* call is a single boolean check; racecheck is
# stdlib-only, so this import keeps the cache path dependency-free.
from ..analysis import racecheck as _racecheck


class _FileLock:
    """Advisory exclusive lock on a path (no-op where flock is missing).

    Used as a context manager around read-modify-write critical sections
    (record appends, counter-sidecar merges).  The lock file is separate
    from the data file so lockers never truncate or touch data, and a
    crashed holder never leaves a stale lock (flock dies with the fd).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = os.fspath(path)
        self._fd: int | None = None

    def __enter__(self) -> "_FileLock":
        _racecheck.note_acquire(self.path)
        if fcntl is not None:
            try:
                self._fd = os.open(
                    self.path, os.O_CREAT | os.O_WRONLY, 0o644
                )
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            except OSError:
                if self._fd is not None:
                    os.close(self._fd)
                self._fd = None
        return self

    def __exit__(self, *exc) -> None:
        _racecheck.note_release(self.path)
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
            self._fd = None


def atomic_append(path: str | Path, line: str | bytes) -> int:
    """Append text lines to ``path`` as a single ``O_APPEND`` write.

    POSIX guarantees the kernel serializes ``O_APPEND`` writes, so two
    processes appending concurrently can interleave *writes* but never
    bytes within one — a reader sees every record whole or not at all.
    Returns the file offset just past the appended bytes.
    """
    _racecheck.note_append(path)
    data = line.encode("utf-8") if isinstance(line, str) else line
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


#: The one sorted-key encoder behind every journal line: the same bytes
#: as ``json.dumps(record, sort_keys=True)``, without building an encoder
#: per line.
_encode = json.JSONEncoder(sort_keys=True).encode


def encode_line(record: dict) -> bytes:
    """The journal line of ``record``: sorted-key JSON and a newline."""
    return (_encode(record) + "\n").encode("utf-8")


class Journal:
    """A keyed index over one append-only JSONL file, safe for many writers.

    The journal owns the data file, its lock sidecar and the byte offset
    up to which this process has read; the stores built on it
    (:class:`ResultCache`, the engine's ``StageCache``, the analytic
    ``CalibrationStore``) only say how a line maps to an index entry.

    * :meth:`refresh` reads only the bytes past the offset.  Only
      complete (newline-terminated) lines advance it: a trailing
      fragment may be an append in flight, or a torn write from a crash,
      and is re-examined next time; lines that do not decode are skipped.
      A file another process replaced (its :meth:`rewrite`, which
      ``repro cache gc`` runs) has a new inode, and one cut below the
      offset is shorter: either is read again from the start, into the
      same index dict, which the stores alias.
    * :meth:`append` is the locked read-check-append of a list of
      entries: one lock, one tail read, one :func:`atomic_append` for
      the whole list.  A file the tail read found ending in a fragment
      (under the lock, always a torn write) gets a newline first, so
      the fragment stays one skipped line instead of swallowing the
      first appended one.  When that write began exactly at the offset,
      nothing came in between, so the offset moves past the lines
      without decoding them; otherwise (a racer's line, a torn
      fragment) the tail is parsed.  The stores' puts append one entry;
      the engine's batches append everything they queued (see
      :meth:`~repro.engine.Engine.run_many`).

    Args:
        path: The ``<name>.jsonl`` data file, guarded by the
            ``<name>.lock`` sidecar beside it, or ``None`` for a purely
            in-memory index (appends only index the entry).
        decode: Maps one parsed line to its ``(key, entry)`` pair;
            ``None`` or a ``KeyError``/``TypeError``/``ValueError``/
            ``AttributeError`` skips the line.
    """

    def __init__(
        self,
        path: str | Path | None,
        decode: Callable[[dict], Optional[tuple[str, object]]],
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.lockpath = self.path and os.path.splitext(self.path)[0] + ".lock"
        self.decode = decode
        self.index: dict[str, object] = {}
        self.offset = 0
        self.size = 0  # file size at the last tail read
        self.inode: Optional[int] = None  # of the file the offset is into
        self._mutex = threading.Lock()  # in-process: service threads
        self._read_tail()

    def _decoded(self, data: bytes) -> Iterator[tuple[dict, str, object]]:
        """``(record, key, entry)`` for every line of ``data`` that decodes."""
        for raw in data.splitlines():
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key, entry = self.decode(record)
            except (KeyError, TypeError, ValueError, AttributeError):
                continue  # a torn write from an interrupted run, or foreign
            yield record, key, entry

    def _read_tail(self) -> int:
        """Index the complete lines past the offset; returns new keys."""
        if self.path is None:
            return 0
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            self.size = 0
            return 0
        self.size = stat.st_size
        if stat.st_ino == self.inode and stat.st_size == self.offset:
            return 0  # nothing new: the one stat is the whole cost
        fd = os.open(self.path, os.O_RDONLY)
        try:
            stat = os.fstat(fd)  # the file read below, even if replaced since
            size = self.size = stat.st_size
            # A new inode (where the platform has none, a file shorter
            # than the offset) means the lines indexed so far are gone.
            replaced = stat.st_ino != self.inode or size < self.offset
            if replaced:
                self.inode, self.offset = stat.st_ino, 0
            data = os.pread(fd, size - self.offset, self.offset)
        finally:
            os.close(fd)
        end = data.rfind(b"\n") + 1  # 0: no complete line yet
        lines = {key: entry for _, key, entry in self._decoded(data[:end])}
        index = self.index
        added = sum(key not in index for key in lines)
        if replaced:
            index.clear()
        index.update(lines)
        self.offset += end
        return added

    def refresh(self) -> int:
        """Fold other writers' appends into the index; returns new keys."""
        with self._mutex:
            return self._read_tail()

    def append(
        self,
        entries: list[tuple[str, object, bytes]],
        present: Optional[Callable[[object], bool]] = None,
    ) -> int:
        """Persist ``(key, entry, line)`` triples and index each entry.

        ``line`` is the entry's :func:`encode_line`.  An entry is skipped
        when the freshly refreshed index, or an earlier entry of the
        list, already holds its key — equal to ``entry``, or as
        ``present(existing)`` decides.  The rest go out as one write, in
        list order.  Returns the number of lines appended.

        Raises:
            OSError: If the file cannot be locked or written; the index
                is then left as the tail read found it.
        """
        if self.path is None:
            self.index.update((key, entry) for key, entry, _ in entries)
            return len(entries)
        with self._mutex, _FileLock(self.lockpath):
            self._read_tail()
            index = self.index
            staged: dict[str, object] = {}
            lines = []
            for key, entry, line in entries:
                existing = staged[key] if key in staged else index.get(key)
                if present(existing) if present is not None else existing == entry:
                    continue
                staged[key] = entry
                lines.append(line)
            if not lines:
                return 0
            data = b"".join(lines)
            if self.size > self.offset:  # the file ends in a fragment
                data = b"\n" + data
            end = atomic_append(self.path, data)
            if end - len(data) == self.offset:
                self.offset = end
                if self.inode is None:  # this write created the file
                    self.inode = os.stat(self.path).st_ino
            else:
                self._read_tail()
            index.update(staged)
        return len(lines)

    def rewrite(self, keep: Callable[[dict], bool]) -> tuple[int, int]:
        """Rewrite the file with the last record per key ``keep`` accepts.

        The read-filter-rename holds the append lock, so an append cannot
        land between the read and the rename and be erased; the index is
        rebuilt from the kept records.  Returns ``(kept, pruned)`` key
        counts; a missing file is left missing.  The new file's inode is
        recorded, so this instance reads on from its end while other
        readers see the replacement and re-read it.
        """
        with self._mutex, _FileLock(self.lockpath):
            try:
                with open(self.path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                return 0, 0
            latest = {  # the last record per key wins
                key: (record, entry)
                for record, key, entry in self._decoded(data)
            }
            kept = {k: v for k, v in latest.items() if keep(v[0])}
            out = b"".join(encode_line(record) for record, _ in kept.values())
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(out)
                inode = os.fstat(fh.fileno()).st_ino
            _racecheck.note_replace(self.path)
            os.replace(tmp, self.path)
            self.index.clear()
            self.index.update((k, entry) for k, (_, entry) in kept.items())
            self.inode, self.offset = inode, len(out)
        return len(kept), len(latest) - len(kept)


class ResultCache:
    """Append-only JSONL cache of evaluated sweep results.

    Args:
        root: Directory holding the cache (created if missing).

    Lookups are in-memory dict hits against a :class:`Journal` index
    loaded once and grown incrementally by :meth:`refresh`.  For a
    duplicated key the last record wins, so re-caching after a
    model-version bump simply shadows the stale line.
    """

    FILENAME = "results.jsonl"
    LOCKNAME = "results.lock"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME
        self.journal = Journal(self.path, _keyed_record)
        self._records = self.journal.index

    def refresh(self) -> int:
        """Fold records appended by other writers into the index.

        Returns the number of keys that were new to this reader.  Cheap
        when nothing changed (one ``stat``), so concurrent consumers can
        call it opportunistically.
        """
        return self.journal.refresh()

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or None."""
        return self._records.get(key)

    def put(self, record: dict) -> None:
        """Persist a record (must carry a ``key``) and index it.

        A record another process cached in the meantime is adopted
        instead of duplicated (see :meth:`Journal.append`); re-putting a
        *different* record under an existing key still appends (last
        record wins on load).

        Raises:
            ValueError: If the record has no key.
        """
        key = record.get("key")
        if not key:
            raise ValueError("cache records must carry a 'key'")
        self.journal.append([(key, record, encode_line(record))])

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)


def _keyed_record(record: dict):
    key = record.get("key")
    return (key, record) if key else None

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
import weakref
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


#: A line's span packs its byte offset and its length, newline included,
#: into one int, ``offset << SPAN_BITS | length``: a store that indexes
#: spans keeps one int per key.  A line of ``MAX_LINE`` bytes or more
#: has no span, and a journal neither writes nor indexes one.
SPAN_BITS = 24
MAX_LINE = 1 << SPAN_BITS


def _decoded(
    data: bytes, decode: Callable, offset: int = 0
) -> Iterator[tuple[dict, str, object]]:
    """``(record, key, entry)`` for every line of ``data`` that decodes.

    ``data`` starts at byte ``offset`` of the file, and is split on
    ``b"\n"`` only, so each span ``decode`` sees is the line's exact
    place in the file.
    """
    pos = offset
    for raw in data.split(b"\n"):
        start, length = pos, len(raw) + 1
        pos += length
        if length >= MAX_LINE or not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8", errors="replace"))
            key, entry = decode(record, start << SPAN_BITS | length)
        except (KeyError, TypeError, ValueError, AttributeError):
            continue  # a torn write from an interrupted run, or foreign
        yield record, key, entry


class Journal:
    """A keyed index over one append-only JSONL file, safe for many writers.

    The journal owns the data file, its lock sidecar and the byte offset
    up to which this process has read; the stores built on it
    (:class:`ResultCache`, the engine's ``StageCache``, the analytic
    ``CalibrationStore``) only say, in ``decode``, what a line indexes
    to: its value, or its span, which :meth:`read` turns back into the
    line's record on demand.

    * :meth:`refresh` reads only the bytes past the offset.  Only
      complete (newline-terminated) lines advance it: a trailing
      fragment may be an append in flight, or a torn write from a crash,
      and is re-examined next time; lines that do not decode are skipped.
      A file another process replaced (its :meth:`rewrite`, which
      ``repro cache gc`` runs) has a new inode, and one cut below the
      offset is shorter: either is read again from the start, into the
      same index dict, which the stores alias.  The journal holds the
      file its offset is into open, so that file's inode number cannot
      be reused by a later replacement while the offset refers to it.
    * :meth:`append` is the locked read-check-append of a list of
      entries: one lock, one tail read, one :func:`atomic_append` for
      the whole list.  A file the tail read found ending in a fragment
      (under the lock, always a torn write) gets a newline first, so
      the fragment stays one skipped line instead of swallowing the
      first appended one.  Each appended line is indexed as a tail read
      would index it, at the span it was written to, without parsing
      it.  When that write began exactly at the offset, nothing came in
      between, so the offset moves past the lines; otherwise (a racer's
      line, a torn fragment) the tail is parsed.  The stores' puts
      append one entry; the engine's batches append everything they
      queued (see :meth:`~repro.engine.Engine.run_many`).

    Args:
        path: The ``<name>.jsonl`` data file, guarded by the
            ``<name>.lock`` sidecar beside it, or ``None`` for a purely
            in-memory index (appends only index the entry, with no span).
        decode: Maps one parsed line and its span (``offset <<
            SPAN_BITS | length``) to the line's ``(key, entry)`` pair;
            ``None`` or a ``KeyError``/``TypeError``/``ValueError``/
            ``AttributeError`` skips the line.  An entry equal to the
            span makes the index hold where the line is: :meth:`read`
            reads it back, and :meth:`append` compares a new record with
            the one read back.
    """

    def __init__(
        self,
        path: str | Path | None,
        decode: Callable[[dict, Optional[int]], Optional[tuple[str, object]]],
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.lockpath = self.path and os.path.splitext(self.path)[0] + ".lock"
        self.decode = decode
        self.index: dict[str, object] = {}
        self.offset = 0
        self.size = 0  # file size at the last tail read
        self.inode: Optional[int] = None  # of the file the offset is into
        self._held: Optional[weakref.finalize] = None  # closes that file
        self._mutex = threading.Lock()  # in-process: service threads
        self._read_tail()

    def _hold(self, fd: int) -> int:
        """Keep ``fd`` open as the file the offset is into; its inode.

        A file's inode number is free for reuse once the file is
        unlinked and closed, so without this two rewrites could hand a
        reader's old inode number to a new file it would take for its
        own.  The file held before is closed.
        """
        if self._held is not None:
            self._held()
        self._held = weakref.finalize(self, os.close, fd)
        return os.fstat(fd).st_ino

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
        replaced = False
        try:
            stat = os.fstat(fd)  # the file read below, even if replaced since
            size = self.size = stat.st_size
            # A new inode (where the platform has none, a file shorter
            # than the offset) means the lines indexed so far are gone.
            replaced = stat.st_ino != self.inode or size < self.offset
            if replaced:
                self.inode, self.offset = self._hold(fd), 0
            data = os.pread(fd, size - self.offset, self.offset)
        finally:
            if not replaced:
                os.close(fd)
        end = data.rfind(b"\n") + 1  # 0: no complete line yet
        lines = {
            key: entry
            for _, key, entry in _decoded(data[:end], self.decode, self.offset)
        }
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

    def read(self, key: str, span: int) -> Optional[dict]:
        """The record on the line at ``span``, if that line is ``key``'s.

        The read is checked: the file must still be the one the index's
        spans belong to (its inode), and the line must decode to
        ``key``.  ``None`` otherwise: the file was replaced or cut since
        (another process's :meth:`rewrite`), or the span predates a
        refresh.
        """
        inode = self.inode
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            if os.fstat(fd).st_ino != inode:
                return None
            data = os.pread(fd, span & (MAX_LINE - 1), span >> SPAN_BITS)
        finally:
            os.close(fd)
        try:
            record = json.loads(data.decode("utf-8", errors="replace"))
            if self.decode(record, span)[0] == key:
                return record
        except (KeyError, TypeError, ValueError, AttributeError):
            pass  # not one whole line, or another key's
        return None

    def _holds(self, key: str, existing, record: dict, span: int) -> bool:
        """Whether the index entry ``existing`` already stands for ``record``.

        ``span`` is one where ``record``'s line could be written: where
        ``decode`` indexes a line by its span, the record read back from
        ``existing``'s line is compared instead of the entries.
        """
        entry = self.decode(record, span)[1]
        if existing == entry:
            return True
        return entry == span and self.read(key, existing) == record

    def append(
        self,
        entries: list[tuple[str, dict, bytes]],
        present: Optional[Callable[[object], bool]] = None,
    ) -> int:
        """Persist ``(key, record, line)`` triples and index each line.

        ``line`` is the record's :func:`encode_line`, and the index takes
        what ``decode`` makes of ``record`` at the line's span.  A triple
        is skipped when the freshly refreshed index, or an earlier
        triple of the list, already holds its key — with an equal
        record, or as ``present(existing)`` decides — and so is a line
        of :data:`MAX_LINE` bytes or more.  The rest go out as one
        write, in list order.  Returns the number of lines appended.

        Raises:
            OSError: If the file cannot be locked or written; the index
                is then left as the tail read found it.
        """
        decode = self.decode
        if self.path is None:
            for _, record, _ in entries:
                key, entry = decode(record, None)
                self.index[key] = entry
            return len(entries)
        with self._mutex, _FileLock(self.lockpath):
            self._read_tail()
            index = self.index
            staged: dict[str, dict] = {}
            out = []
            for key, record, line in entries:
                if len(line) >= MAX_LINE:
                    continue
                if key in staged:
                    held = staged[key] == record
                else:
                    existing = index.get(key)
                    if present is not None:
                        held = present(existing)
                    else:
                        held = existing is not None and self._holds(
                            key, existing, record,
                            self.size << SPAN_BITS | len(line),
                        )
                if held:
                    continue
                staged[key] = record
                out.append((key, record, line))
            if not out:
                return 0
            # A file that ends in a fragment gets a newline first.
            lead = b"\n" if self.size > self.offset else b""
            data = lead + b"".join(line for _, _, line in out)
            end = atomic_append(self.path, data)
            if end - len(data) == self.offset:
                self.offset = end
                if self.inode is None:  # this write created the file
                    self.inode = self._hold(os.open(self.path, os.O_RDONLY))
            else:
                self._read_tail()
            pos = end - len(data) + len(lead)
            for key, record, line in out:
                index[key] = decode(record, pos << SPAN_BITS | len(line))[1]
                pos += len(line)
        return len(out)

    def rewrite(self, keep: Callable[[dict], bool]) -> tuple[int, int]:
        """Rewrite the file with the last record per key ``keep`` accepts.

        The read-filter-rename holds the append lock, so an append cannot
        land between the read and the rename and be erased; the index is
        rebuilt from the kept records, at their spans in the new file.
        Returns ``(kept, pruned)`` key counts; a missing file is left
        missing.  The new file's inode is recorded, so this instance
        reads on from its end while other readers see the replacement
        and re-read it.
        """
        with self._mutex, _FileLock(self.lockpath):
            try:
                with open(self.path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                return 0, 0
            latest = {  # the last record per key wins
                key: record for record, key, _ in _decoded(data, self.decode)
            }
            index: dict[str, object] = {}
            lines = []
            pos = 0
            for key, record in latest.items():
                if keep(record):
                    line = encode_line(record)
                    span = pos << SPAN_BITS | len(line)
                    index[key] = self.decode(record, span)[1]
                    lines.append(line)
                    pos += len(line)
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(b"".join(lines))
            inode = self._hold(os.open(tmp, os.O_RDONLY))
            _racecheck.note_replace(self.path)
            os.replace(tmp, self.path)
            self.index.clear()
            self.index.update(index)
            self.inode, self.offset = inode, pos
        return len(index), len(latest) - len(index)


def latest_records(path: str | Path) -> dict[str, dict]:
    """The last record per key on the complete lines of a ``results.jsonl``.

    One in-order read of the whole file, for the readers that want
    every record (``repro cache stats`` and ``merge``), where a
    :class:`ResultCache` would read each line back on its own.  A
    missing file reads as empty.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}
    complete = data[: data.rfind(b"\n") + 1]
    return {key: record for record, key, _ in _decoded(complete, _keyed_record)}


class ResultCache:
    """Append-only JSONL cache of evaluated sweep results.

    Args:
        root: Directory holding the cache (created if missing).

    The :class:`Journal` index maps each key to its line's span, not to
    the record, so the cache costs a process one int per key; loaded
    once and grown incrementally by :meth:`refresh`.  :meth:`get` reads
    and parses that one line, so the records a process keeps are only
    those in the engine's memory tier
    (:class:`~repro.engine.cache.TieredCache`).  For a duplicated key
    the last record wins, so re-caching after a model-version bump
    simply shadows the stale line.
    """

    FILENAME = "results.jsonl"
    LOCKNAME = "results.lock"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME
        self.journal = Journal(self.path, _keyed_record)
        self._records = self.journal.index  # key -> span

    def refresh(self) -> int:
        """Fold records appended by other writers into the index.

        Returns the number of keys that were new to this reader.  Cheap
        when nothing changed (one ``stat``), so concurrent consumers can
        call it opportunistically.
        """
        return self.journal.refresh()

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or None.

        One open, ``pread`` and parse of the key's line.  A failed check
        (the file was replaced, say by another process's ``repro cache
        gc``, or the span predates a refresh) costs one :meth:`refresh`
        and one retry; a retry that fails too is a miss, never another
        key's record.
        """
        span = self._records.get(key)
        if span is None:
            return None
        record = self.journal.read(key, span)
        if record is None:
            self.refresh()
            span = self._records.get(key)
            if span is not None:
                record = self.journal.read(key, span)
        return record

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


def _keyed_record(record: dict, span: Optional[int]):
    key = record.get("key")
    return (key, span) if key else None

"""Result caching tiers: in-memory LRU, disk records, and stage memos.

The engine consults the memory tier first, then the content-addressed
on-disk :class:`~repro.sweep.cache.ResultCache`; disk hits are promoted
into the LRU, so repeated points inside one process — search
generations, experiment reruns, tests — never go back to the disk tier.
Keys already embed :data:`~repro.api.scenario.CODE_MODEL_VERSION`, so a
model-version bump invalidates both tiers at once: old entries simply
stop being addressed.

The third tier is the :class:`StageCache`: ``Pipeline.run`` factors into
two independent stages — the physical ``implement()`` (keyed by
flow/capacity/arch/frequency only) and the workload ``cycles()`` (keyed
by workload/tiling/arch/bandwidth only) — and each stage result is
memoized under its own content address
(:attr:`~repro.api.scenario.Scenario.physical_key` /
:attr:`~repro.api.scenario.Scenario.cycles_key`).  A sweep of K kernels
across A architectures therefore performs A physical implementations
instead of A x K, and cycle counts are shared across flow, frequency,
and objective variants.

The module also owns the cache-maintenance helpers behind the
``repro cache`` CLI: the ``stats.json`` hit/miss counters (merged at
most once a second, never on the per-lookup hot path), ``clear``, and a
``gc`` that prunes entries written under old code-model versions.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from ..analysis import racecheck as _racecheck
from ..api import scenario as _scenario
from ..sweep.cache import (
    Journal,
    ResultCache,
    _FileLock,
    encode_line,
    latest_records,
)
from ..sweep.spec import Job

#: Longest a batch keeps completed records and stage memos queued before
#: writing them (a killed process loses at most about this much work);
#: also the least time between two batch-end counter merges.
COMMIT_INTERVAL_S = 1.0

#: Default bound of the in-memory tier, the only one that keeps records
#: in memory.  A record costs about 1 KB there, so the default costs a
#: few megabytes.
DEFAULT_LRU_SIZE = 4096

#: Sidecar file (inside the cache directory) accumulating hit counters.
STATS_FILENAME = "stats.json"

_COUNTER_KEYS = ("memory_hits", "disk_hits", "misses", "stores")

#: Stage-tier counters, merged into the same sidecar.
STAGE_COUNTER_KEYS = (
    "physical_hits", "physical_evals", "cycles_hits", "cycles_evals",
)

#: Analytic-tier counters (the ``analytic`` engine's tier-0 path),
#: merged into the same sidecar: predictions served from calibrated
#: closed forms, calibrations fitted, and fallbacks to the fast engine
#: (no predictor, calibration failed, or achieved error out of bound).
ANALYTIC_COUNTER_KEYS = (
    "analytic_predictions", "analytic_calibrations", "analytic_fallbacks",
)


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Args:
        maxsize: Entry bound; ``0`` disables the cache entirely (every
            ``get`` misses, every ``put`` is dropped).
    """

    def __init__(self, maxsize: int = DEFAULT_LRU_SIZE) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self._data: OrderedDict[str, dict] = OrderedDict()

    def get(self, key: str) -> Optional[dict]:
        """The cached record for ``key`` (refreshing its recency), or None."""
        record = self._data.get(key)
        if record is not None:
            self._data.move_to_end(key)
        return record

    def put(self, key: str, record: dict) -> None:
        """Insert a record, evicting the oldest entry past the bound."""
        if self.maxsize == 0:
            return
        self._data[key] = record
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


class GroupCommit:
    """Journal lines a store queues while engine batches are open.

    :meth:`Engine.run_many <repro.engine.Engine.run_many>` opens a batch
    on the record and stage stores it writes to.  While one is open in
    this process, :meth:`offer` queues a put's line instead of writing
    it, and :meth:`commit` writes the whole queue as one
    :meth:`~repro.sweep.cache.Journal.append`: one lock, one tail read,
    one ``O_APPEND`` write, and no descriptor held between commits.  A
    pool worker forked mid-batch inherits the open batch but is another
    process, so it writes its own lines at once.  ``pending`` keeps
    queued records visible to lookups until they are on disk; a failed
    write leaves them queued for the next commit.
    """

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self.pending: dict[str, tuple[dict, bytes]] = {}
        self._open = 0
        self._pid = 0
        self._lock = threading.Lock()

    def open(self) -> None:
        """Start queueing (batches nest: each :meth:`open` needs a close)."""
        with self._lock:
            if self._pid != os.getpid():  # batches a parent process opened
                self._open = 0
            self._open += 1
            self._pid = os.getpid()

    def offer(self, key: str, record: dict) -> bool:
        """Queue one record if a batch is open here; ``False``: write it now."""
        if not self._open or self._pid != os.getpid():
            return False
        line = encode_line(record)  # the bytes as of the put
        with self._lock:
            if not self._open:
                return False
            self.pending[key] = (record, line)
        return True

    def commit(self, close: bool = False) -> None:
        """Write the queue as one append; ``close`` also ends one batch."""
        with self._lock:
            self._open -= close
            if self.pending:
                self.journal.append([
                    (key, record, line)
                    for key, (record, line) in self.pending.items()
                ])
                self.pending.clear()


class TieredCache:
    """Memory-over-disk result cache with batch-wise merged hit counters.

    Only the memory tier holds records: the disk tier's index holds
    where each record's line is, so ``lru_size`` bounds the records a
    process keeps, and a disk hit costs one read and parse of its line
    (done outside this cache's lock) before it is promoted.

    Args:
        disk: The persistent tier; ``None`` keeps the cache purely
            in-memory (still useful: repeated points in one process).
        lru_size: Bound of the memory tier; ``0`` disables it, making
            this a thin counting wrapper over the disk tier.
    """

    def __init__(
        self,
        disk: Optional[ResultCache] = None,
        lru_size: int = DEFAULT_LRU_SIZE,
    ) -> None:
        self.disk = disk
        self._counts = accumulator_for(disk.root) if disk is not None else None
        self.memory = LRUCache(lru_size)
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self._flushed = dict.fromkeys(_COUNTER_KEYS, 0)
        self._queue = GroupCommit(disk.journal) if disk is not None else None
        # One engine per thread is the common case, but the service
        # shares a cache across concurrent request handlers; the LRU's
        # OrderedDict is not safe under concurrent mutation, so tier
        # operations serialize on a short critical section.
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[dict]:
        """Look up a record: memory tier first, disk promoted on hit."""
        with self._lock:
            record = self.memory.get(key)
            if record is not None:
                self.memory_hits += 1
                return record
            if self.disk is None or key not in self.disk:
                self.misses += 1
                return None
        record = self.disk.get(key)  # one read and parse, unlocked
        with self._lock:
            if record is None:
                self.misses += 1
                return None
            self.disk_hits += 1
            self.memory.put(key, record)
            return record

    def put(self, record: dict) -> None:
        """Store a record in both tiers (must carry a ``key``).

        Inside an open batch the disk line is queued for the batch's
        :meth:`commit`; otherwise it is written at once.
        """
        key = record.get("key")
        if not key:
            raise ValueError("cache records must carry a 'key'")
        with self._lock:
            self.stores += 1
            self.memory.put(key, record)
        if self.disk is not None and not self._queue.offer(key, record):
            self.disk.put(record)

    def open_batch(self) -> None:
        """Queue disk writes until :meth:`commit` (see :class:`GroupCommit`)."""
        if self._queue is not None:
            self._queue.open()

    def commit(self, close: bool = False) -> None:
        """Write the queued records; ``close`` also ends one batch.

        Raises:
            OSError: If the cache file cannot be written (the records
                stay queued for the next commit).
        """
        if self._queue is not None:
            self._queue.commit(close)

    def refresh(self) -> int:
        """Fold other writers' disk appends into the persistent tier."""
        if self.disk is None:
            return 0
        return self.disk.refresh()

    def counters(self) -> dict[str, int]:
        """The current in-process counter values."""
        return {name: getattr(self, name) for name in _COUNTER_KEYS}

    def flush_stats(self, force: bool = False) -> None:
        """Hand counter growth since the last call, with the directory's
        process-wide :class:`StageCache`'s, to its :class:`CounterAccumulator`,
        which merges it if due (``force``: at once).

        In-process counters stay cumulative (callers diff them across
        batches).  The engine calls this once per batch, so the lookup
        hot path never touches the filesystem.  A no-op without a disk.
        """
        with self._lock:
            counters = self.counters()
            delta = {
                name: counters[name] - self._flushed[name]
                for name in _COUNTER_KEYS
            }
            self._flushed = counters
        counts = self._counts
        if counts is None:
            return
        if counts.stages is not None:
            delta.update(counts.stages._take_delta())
        counts.add(delta)
        counts.flush(due=not force)


class StageCache:
    """Persistent memo of per-stage pipeline results (the third tier).

    Two stages are memoized: ``physical`` maps
    :attr:`~repro.api.scenario.Scenario.physical_key` to a
    :class:`~repro.core.metrics.GroupResult`, and ``cycles`` maps
    :attr:`~repro.api.scenario.Scenario.cycles_key` to a cycle count.
    Values live in a :class:`~repro.sweep.cache.Journal` index backed by
    an append-only JSONL file (``stages.jsonl``) inside the cache
    directory, shared with the record cache; worker processes each load
    the file once and append their own computations.  Inside an engine
    batch the process-wide memo queues its lines like the record tier
    (see :class:`GroupCommit`); outside one every put writes at once.

    Args:
        root: Cache directory, or ``None`` for a purely in-memory memo.
    """

    FILENAME = "stages.jsonl"
    LOCKNAME = "stages.lock"

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME if self.root else None
        self.journal = Journal(self.path, _stage_entry)
        self._entries = self.journal.index  # key -> (stage, raw value)
        self._physical: dict[str, object] = {}  # materialized GroupResults
        self.physical_hits = 0
        self.physical_evals = 0
        self.cycles_hits = 0
        self.cycles_evals = 0
        self._flushed = dict.fromkeys(STAGE_COUNTER_KEYS, 0)
        self._flush_lock = threading.Lock()
        self._queue = GroupCommit(self.journal)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        """Snapshot of ``(key, raw value)`` pairs (counters untouched)."""
        return [(key, entry[1]) for key, entry in self._entries.items()]

    def peek(self, key: str):
        """The raw memoized value for ``key`` (counters untouched)."""
        entry = self._entries.get(key)
        return entry[1] if entry is not None else None

    def stage_of(self, key: str) -> str:
        """Which stage (``physical``/``cycles``) a memo key belongs to."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else "cycles"

    def refresh(self) -> int:
        """Fold memos appended by other writers into the in-process view."""
        return self.journal.refresh()

    def _append(self, stage: str, key: str, value) -> None:
        record = {
            "stage": stage,
            "key": key,
            "value": value,
            # Read at call time, as the keys and the records read it.
            "model_version": _scenario.CODE_MODEL_VERSION,
        }
        if self._queue.offer(key, record):
            return
        try:
            self.journal.append([(key, record, encode_line(record))])
        except OSError:  # only costs a recomputation later
            self._entries[key] = (stage, value)

    def open_batch(self) -> None:
        """Queue memo writes until :meth:`commit` (see :class:`GroupCommit`)."""
        self._queue.open()

    def commit(self, close: bool = False) -> None:
        """Write the queued memos; ``close`` also ends one batch."""
        try:
            self._queue.commit(close)
        except OSError:  # the memos stay queued, and visible, for a retry
            pass

    # -- physical stage -------------------------------------------------
    def get_physical(self, key: str):
        """The memoized :class:`GroupResult` for ``key``, or ``None``."""
        result = self._physical.get(key)
        if result is not None:
            self.physical_hits += 1
            return result
        entry = self._entries.get(key)
        if entry is None:
            return None
        from ..core.metrics import GroupResult

        result = GroupResult(**entry[1])
        self._physical[key] = result
        self.physical_hits += 1
        return result

    def put_physical(self, key: str, result) -> None:
        """Memoize a freshly-implemented physical stage result.

        A :class:`GroupResult` is flat, so its field dict is its
        ``dataclasses.asdict`` without the recursive copy.
        """
        self.physical_evals += 1
        self._physical[key] = result
        self._append("physical", key, dict(vars(result)))

    # -- cycles stage ---------------------------------------------------
    def get_cycles(self, key: str) -> Optional[float]:
        """The memoized workload cycle count for ``key``, or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            value = entry[1]
        else:
            queued = self._queue.pending.get(key)
            if queued is None:
                return None
            value = queued[0]["value"]
        self.cycles_hits += 1
        return float(value)

    def put_cycles(self, key: str, cycles: float) -> None:
        """Memoize a freshly-evaluated workload cycle count."""
        self.cycles_evals += 1
        self._append("cycles", key, float(cycles))

    # -- counters -------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The current in-process stage counter values."""
        return {name: getattr(self, name) for name in STAGE_COUNTER_KEYS}

    def _take_delta(self) -> dict[str, int]:
        """Counter growth since the last take (a thread-safe snapshot)."""
        with self._flush_lock:
            counters = self.counters()
            delta = {
                name: counters[name] - self._flushed[name]
                for name in STAGE_COUNTER_KEYS
            }
            self._flushed = counters
        return delta

    def flush_stats(self) -> None:
        """Hand counter growth since the last call to the directory's
        :class:`CounterAccumulator` (an in-memory memo drops it).  For the
        process-wide memo, engine batches and the exit hook do this."""
        delta = self._take_delta()
        if self.root is not None:
            accumulator_for(self.root).add(delta)


def _stage_entry(record: dict, span: Optional[int]):
    key = record.get("key")
    if not key or "value" not in record:
        return None
    return key, (record.get("stage", "cycles"), record["value"])


#: Process-wide stage caches, one per cache directory: serial runs and
#: pool workers alike funnel through :func:`stage_cache_for`, so every
#: evaluation in a process shares one memo per root.
_STAGE_CACHES: dict[str, StageCache] = {}


def stage_cache_for(root: str | Path) -> StageCache:
    """The process-wide :class:`StageCache` for a cache directory.

    Its counter growth goes to the directory's :class:`CounterAccumulator`
    at the end of each engine batch and at exit (a pool worker's too);
    a bare :class:`~repro.api.Pipeline`'s waits for either.
    """
    key = str(root)
    cache = _STAGE_CACHES.get(key)
    if cache is None:
        new = StageCache(root)
        cache = _STAGE_CACHES.setdefault(key, new)  # racing threads share one
        if cache is new:
            accumulator_for(root).stages = cache
    return cache


class CounterAccumulator:
    """This process's unmerged ``stats.json`` counts for one cache directory.

    The record tier and the stage memo hand their growth over at the end
    of each engine batch, the analytic tier per outcome.  The locked
    :func:`_merge_sidecar` runs after a batch at most once per
    :data:`COMMIT_INTERVAL_S` (the first at once), at exit, and before
    this process reads the counters; the counts live here, not in the
    caches, so a collected cache's growth still lands at exit.
    """

    def __init__(self, root: str) -> None:
        self.path = Path(root) / STATS_FILENAME
        self.pending: dict[str, int] = {}
        self.stages: Optional[StageCache] = None  # see stage_cache_for
        self._merged = -float("inf")
        self._lock = threading.Lock()

    def add(self, delta: dict[str, int]) -> None:
        """Take over growth (zeros too: the sidecar lists every name)."""
        with self._lock:
            for name, value in delta.items():
                self.pending[name] = self.pending.get(name, 0) + value

    def flush(self, due: bool = False) -> None:
        """Merge the pending growth (``due``: only once the interval has
        passed), under the lock, so a reader's flush waits for a merge in
        flight.  A directory that is gone is not recreated."""
        with self._lock:
            now = time.monotonic()
            if (
                due and now - self._merged < COMMIT_INTERVAL_S
            ) or not any(self.pending.values()):
                return
            delta, self.pending, self._merged = self.pending, {}, now
            if self.path.parent.is_dir():
                _merge_sidecar(self.path, delta)

    def discard(self) -> None:
        """Drop this process's unmerged counts (the directory was cleared)."""
        with self._lock:
            self.pending = {}
        if self.stages is not None:
            self.stages._take_delta()

    def flush_at_exit(self) -> None:
        """The exit hook: take the memo's last growth and merge it all."""
        if self.stages is not None:
            self.add(self.stages._take_delta())
        self.flush()

    def _after_fork(self) -> None:
        """A forked child merges only its own growth, at its own exit."""
        from multiprocessing import util as mp_util

        # A lock another parent thread held at the fork stays held here.
        self._lock = threading.Lock()
        self.pending, self._merged = {}, -float("inf")
        if self.stages is not None:
            self.stages._flush_lock = threading.Lock()
            self.stages._take_delta()
        mp_util.Finalize(None, self.flush_at_exit, exitpriority=10)


#: Process-wide counter accumulators, keyed by absolute directory path.
_ACCUMULATORS: dict[str, CounterAccumulator] = {}


def accumulator_for(root: str | Path) -> CounterAccumulator:
    """The process-wide :class:`CounterAccumulator` for a cache directory.

    Its first use registers the exit flush with ``atexit`` and with
    ``multiprocessing.util.Finalize`` (multiprocessing children skip
    ``atexit``; a second run finds nothing pending), and an after-fork
    hook: a forked child inherits the accumulator but not the finalizer.
    """
    key = os.path.abspath(root)
    counts = _ACCUMULATORS.get(key)
    if counts is None:
        from multiprocessing import util as mp_util  # first use only

        # setdefault is atomic: threads racing here share one accumulator.
        new = CounterAccumulator(key)
        counts = _ACCUMULATORS.setdefault(key, new)
        if counts is new:
            atexit.register(counts.flush_at_exit)
            mp_util.Finalize(None, counts.flush_at_exit, exitpriority=10)
            mp_util.register_after_fork(counts, CounterAccumulator._after_fork)
    return counts


def _merge_pending(root: str | Path) -> None:
    """Merge this process's unmerged counts for ``root`` (before a read)."""
    counts = _ACCUMULATORS.get(os.path.abspath(root))
    if counts is not None:
        counts.flush()


def _merge_sidecar(path: Path, delta: dict[str, int]) -> None:
    """Fold counter deltas into the sidecar via a locked atomic replace.

    The read-modify-write runs under an advisory lockfile, so concurrent
    writers (engines, service workers, cache merges) each land their
    increments instead of overwriting each other's.  The temp file is
    per-process and the final step an atomic rename, so a reader never
    sees a torn file; where locking is unavailable a lost race drops a
    delta, which is acceptable for advisory counters.
    """
    with _FileLock(path.with_suffix(".lock")):
        merged = _load_sidecar(path)
        for name, value in delta.items():
            merged[name] = merged.get(name, 0) + value
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            tmp.write_text(
                json.dumps(merged, sort_keys=True), encoding="utf-8"
            )
            _racecheck.note_replace(path)
            tmp.replace(path)
        except OSError:
            tmp.unlink(missing_ok=True)


def merge_cache_dirs(src: str | Path, dst: str | Path) -> dict[str, int]:
    """Fold one cache directory into another (a worker's into the shared root).

    Copies every result record and stage memo ``dst`` does not already
    hold (locked, atomic appends — safe while engines are actively using
    either directory; ``src``'s records in one in-order read and one
    append) and adds ``src``'s counter sidecar, with this process's
    unmerged counts for it, into ``dst``'s.
    Returns ``{"records": n, "stages": n}`` — how many entries were new.

    Raises:
        FileNotFoundError: If ``src`` is not a directory.
    """
    src, dst = Path(src), Path(dst)
    if not src.is_dir():
        raise FileNotFoundError(f"no cache directory at {src}")
    dst_cache = ResultCache(dst)
    new = [
        (key, record, encode_line(record))
        for key, record in latest_records(src / ResultCache.FILENAME).items()
        if key not in dst_cache
    ]
    if new:
        dst_cache.journal.append(new)
    stages = 0
    src_stages = StageCache(src)
    if len(src_stages):
        dst_stages = StageCache(dst)
        for key, value in src_stages.items():
            if dst_stages.peek(key) != value:
                dst_stages._append(src_stages.stage_of(key), key, value)
                stages += 1
    _merge_pending(src)
    counters = _load_sidecar(src / STATS_FILENAME)
    if counters:
        _merge_sidecar(dst / STATS_FILENAME, counters)
    return {"records": len(new), "stages": stages}


def _load_sidecar(path: Path) -> dict[str, int]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return {}
    return {k: int(v) for k, v in data.items() if isinstance(v, (int, float))}


def _open_existing(root: str | Path) -> Optional[ResultCache]:
    """The cache at ``root``, or ``None`` — without creating anything.

    Maintenance commands are inspection tools: a mistyped ``--cache-dir``
    must never leave a directory (or an empty cache file) behind, so the
    directory-creating :class:`ResultCache` constructor only runs when
    the directory already exists.
    """
    if not Path(root).is_dir():
        return None
    return ResultCache(root)


def cache_stats(root: str | Path) -> dict:
    """Summary of an on-disk cache: entries, bytes, and hit counters.

    The hit rate folds both tiers' hits against misses, as accumulated
    by engine runs into the sidecar counter (absent counters read as 0);
    this process's unmerged counts are merged first, so they are exact
    here.  The records are one in-order read of the file.  Read-only on
    a missing cache: it reports zero entries and is not created.
    """
    root = Path(root)
    exists = root.is_dir()
    path = root / ResultCache.FILENAME
    records = latest_records(path) if exists else {}
    _merge_pending(root)  # a missing directory stays missing
    counters = _load_sidecar(root / STATS_FILENAME) if exists else {}
    hits = counters.get("memory_hits", 0) + counters.get("disk_hits", 0)
    lookups = hits + counters.get("misses", 0)
    versions: dict[str, int] = {}
    for record in records.values():
        version = _record_version(record)
        versions[version] = versions.get(version, 0) + 1
    from ..analytic.store import CalibrationStore

    # Opening a journal creates no file, and the directory exists.
    stage_entries = len(StageCache(root)) if exists else 0
    calibration_entries = len(CalibrationStore(root)) if exists else 0
    return {
        "path": str(path),
        "entries": len(records),
        "bytes": path.stat().st_size if exists and path.exists() else 0,
        "versions": versions,
        **{name: counters.get(name, 0) for name in _COUNTER_KEYS},
        "hit_rate": (hits / lookups) if lookups else None,
        "stage_entries": stage_entries,
        **{name: counters.get(name, 0) for name in STAGE_COUNTER_KEYS},
        **{name: counters.get(name, 0) for name in ANALYTIC_COUNTER_KEYS},
        "calibration_entries": calibration_entries,
    }


def cache_clear(root: str | Path) -> int:
    """Delete every cache entry (and the sidecar); returns entries removed.

    This process's unmerged counts for the directory go too, so no later
    merge brings the cleared counters back.  A missing cache directory is
    a no-op, never created.
    """
    from ..analytic.store import CalibrationStore

    cache = _open_existing(root)
    if cache is None:
        return 0
    counts = _ACCUMULATORS.get(os.path.abspath(root))
    if counts is not None:
        counts.discard()
    removed = len(cache)
    # Each unlink runs under the file's own lock sidecar: a concurrent
    # appender holding the lock finishes (or waits) instead of writing
    # into an unlinked inode and silently losing its record.
    for data, lock in (
        (ResultCache.FILENAME, ResultCache.LOCKNAME),
        (STATS_FILENAME, "stats.lock"),
        (StageCache.FILENAME, StageCache.LOCKNAME),
        (CalibrationStore.FILENAME, CalibrationStore.LOCKNAME),
    ):
        with _FileLock(cache.root / lock):
            (cache.root / data).unlink(missing_ok=True)
    return removed


def _record_version(record: Optional[dict]) -> str:
    """The code-model version a cache record was written under.

    Recent records carry it explicitly; legacy records are classified by
    recomputing the key from the stored job parameters — a match means
    the record addresses the *current* version (keys embed the version).
    """
    if not record:
        return "unknown"
    version = record.get("model_version")
    if version:
        return str(version)
    try:
        if Job.from_params(record["job"]).key == record["key"]:
            return _scenario.CODE_MODEL_VERSION
    except Exception:
        pass
    return "unknown"


def cache_gc(
    root: str | Path, keep_version: Optional[str] = None
) -> tuple[int, int]:
    """Prune cache entries written under other code-model versions.

    Args:
        root: Cache directory.
        keep_version: The version whose entries survive; defaults to the
            current :data:`~repro.api.scenario.CODE_MODEL_VERSION`.

    Returns:
        ``(kept, pruned)`` entry counts.  The cache file is rewritten
        atomically (temp file + rename), deduplicated by key.  A missing
        cache is a no-op — nothing is created.
    """
    keep = keep_version or _scenario.CODE_MODEL_VERSION
    cache = _open_existing(root)
    if cache is None:
        return 0, 0
    counts = cache.journal.rewrite(lambda r: _record_version(r) == keep)
    StageCache(cache.root).journal.rewrite(
        lambda r: r.get("model_version") == keep
    )
    return counts

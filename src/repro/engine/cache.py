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
``repro cache`` CLI: a sidecar hit/miss counter (flushed batch-wise by
the engine, never on the per-lookup hot path), ``clear``, and a ``gc``
that prunes entries written under old code-model versions.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from ..analysis import racecheck as _racecheck
from ..sweep.cache import Journal, ResultCache, _FileLock
from ..sweep.spec import Job

#: Default bound of the in-memory tier.  Records are small dicts (a few
#: hundred bytes), so the default costs at most a few megabytes.
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


class TieredCache:
    """Memory-over-disk result cache with batch-flushed hit counters.

    Args:
        disk: The persistent tier; ``None`` keeps the cache purely
            in-memory (still useful: repeated points in one process).
        lru_size: Bound of the memory tier; ``0`` disables it, making
            this a thin counting wrapper over the disk tier.
        stats_flush_interval_s: Minimum seconds between sidecar merges.
            ``0`` (the default) persists counter growth on every
            :meth:`flush_stats` call.  A service handling thousands of
            small batches per second sets this to coalesce the locked
            read-modify-write of ``stats.json`` (a ~0.3 ms serialised
            disk rename per call otherwise); deltas accumulate
            in-process and ``flush_stats(force=True)`` drains them.
    """

    def __init__(
        self,
        disk: Optional[ResultCache] = None,
        lru_size: int = DEFAULT_LRU_SIZE,
        stats_flush_interval_s: float = 0.0,
    ) -> None:
        self.disk = disk
        self.stats_flush_interval_s = stats_flush_interval_s
        self._last_sidecar_merge = -float("inf")
        self.memory = LRUCache(lru_size)
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self._flushed = dict.fromkeys(_COUNTER_KEYS, 0)
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
            if self.disk is not None:
                record = self.disk.get(key)
                if record is not None:
                    self.disk_hits += 1
                    self.memory.put(key, record)
                    return record
            self.misses += 1
            return None

    def put(self, record: dict) -> None:
        """Store a record in both tiers (must carry a ``key``)."""
        key = record.get("key")
        if not key:
            raise ValueError("cache records must carry a 'key'")
        with self._lock:
            self.stores += 1
            self.memory.put(key, record)
        if self.disk is not None:
            self.disk.put(record)

    def refresh(self) -> int:
        """Fold other writers' disk appends into the persistent tier."""
        if self.disk is None:
            return 0
        return self.disk.refresh()

    def counters(self) -> dict[str, int]:
        """The current in-process counter values."""
        return {name: getattr(self, name) for name in _COUNTER_KEYS}

    def flush_stats(self, force: bool = False) -> None:
        """Merge counter growth since the last flush into the disk sidecar.

        In-process counters stay cumulative (callers diff them across
        batches); only the delta reaches disk.  A no-op without a disk
        tier.  Called by the engine once per batch, so the per-lookup
        hot path never touches the filesystem.  The same merge carries
        the growth of the directory's :class:`StageCache` and any
        pending analytic-tier counters, so a due flush is one locked
        rewrite of ``stats.json``.  With a nonzero
        ``stats_flush_interval_s`` the deltas keep accumulating until
        the interval elapses (or ``force=True`` drains them), so
        per-batch callers never serialise on the sidecar lock.
        """
        if self.disk is None:
            self._flushed = self.counters()
            return
        now = time.monotonic()
        if (
            not force
            and self.stats_flush_interval_s > 0
            and now - self._last_sidecar_merge < self.stats_flush_interval_s
        ):
            return
        with self._lock:
            counters = self.counters()
            delta = {
                name: counters[name] - self._flushed[name]
                for name in _COUNTER_KEYS
            }
            self._flushed = counters
            self._last_sidecar_merge = now
        root = str(self.disk.root)
        stages = _STAGE_CACHES.get(root)
        if stages is not None:
            delta.update(stages.take_delta())
        # Only a loaded analytic tier can have pending counters; looking
        # it up keeps the tier unimported on non-analytic runs.
        tier = sys.modules.get("repro.analytic.tier")
        if tier is not None:
            delta.update(tier.take_pending_stats(root))
        if any(delta.values()):
            _merge_sidecar(self.disk.root / STATS_FILENAME, delta)


class StageCache:
    """Persistent memo of per-stage pipeline results (the third tier).

    Two stages are memoized: ``physical`` maps
    :attr:`~repro.api.scenario.Scenario.physical_key` to a
    :class:`~repro.core.metrics.GroupResult`, and ``cycles`` maps
    :attr:`~repro.api.scenario.Scenario.cycles_key` to a cycle count.
    Values live in a :class:`~repro.sweep.cache.Journal` index backed by
    an append-only JSONL file (``stages.jsonl``) inside the cache
    directory, shared with the record cache; worker processes each load
    the file once and append their own computations.

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
        from ..api.scenario import CODE_MODEL_VERSION

        record = {
            "stage": stage,
            "key": key,
            "value": value,
            "model_version": CODE_MODEL_VERSION,
        }
        try:
            self.journal.append(key, (stage, value), record)
        except OSError:  # only costs a recomputation later
            self._entries[key] = (stage, value)

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
        """Memoize a freshly-implemented physical stage result."""
        from dataclasses import asdict

        self.physical_evals += 1
        self._physical[key] = result
        self._append("physical", key, asdict(result))

    # -- cycles stage ---------------------------------------------------
    def get_cycles(self, key: str) -> Optional[float]:
        """The memoized workload cycle count for ``key``, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self.cycles_hits += 1
        return float(entry[1])

    def put_cycles(self, key: str, cycles: float) -> None:
        """Memoize a freshly-evaluated workload cycle count."""
        self.cycles_evals += 1
        self._append("cycles", key, float(cycles))

    # -- counters -------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The current in-process stage counter values."""
        return {name: getattr(self, name) for name in STAGE_COUNTER_KEYS}

    def take_delta(self) -> dict[str, int]:
        """Counter growth since the last take (the sidecar's next delta).

        The snapshot is taken under a lock, so concurrent takers
        (thread-backend engines sharing one process-wide cache) never
        double-count an increment.
        """
        with self._flush_lock:
            counters = self.counters()
            delta = {
                name: counters[name] - self._flushed[name]
                for name in STAGE_COUNTER_KEYS
            }
            self._flushed = counters
        return delta

    def flush_stats(self) -> None:
        """Merge counter growth since the last flush into the sidecar.

        The engine folds this delta into :meth:`TieredCache.flush_stats`;
        this standalone flush serves pool workers at exit.  Both share
        one ``stats.json``, under disjoint counter names.
        """
        delta = self.take_delta()
        if self.root is not None:
            record_stats(self.root, delta)


def _stage_entry(record: dict):
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

    Counter flushing is batch-wise, never per evaluation: the engine's
    :meth:`TieredCache.flush_stats` carries this cache's delta in its
    own process, and pool workers flush once at process exit, so the
    per-job hot path never touches the sidecar file.  Multiprocessing
    children skip ``atexit`` (they leave via ``os._exit``), so the exit
    hook is registered with ``multiprocessing.util.Finalize`` as well,
    which their bootstrap does run; the delta-based flush makes running
    both a no-op.
    """
    from multiprocessing import util as mp_util

    key = str(root)
    cache = _STAGE_CACHES.get(key)
    if cache is None:
        cache = StageCache(root)
        _STAGE_CACHES[key] = cache
        atexit.register(cache.flush_stats)
        mp_util.Finalize(None, cache.flush_stats, exitpriority=10)
    return cache


def record_stats(root: str | Path, delta: dict[str, int]) -> None:
    """Fold counter deltas into ``root``'s sidecar (the locked merge).

    All-zero deltas, and roots that are not directories, are dropped
    without touching the filesystem.
    """
    if any(delta.values()) and Path(root).is_dir():
        _merge_sidecar(Path(root) / STATS_FILENAME, delta)


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
    either directory) and adds ``src``'s counter sidecar into ``dst``'s.
    Returns ``{"records": n, "stages": n}`` — how many entries were new.

    Raises:
        FileNotFoundError: If ``src`` is not a directory.
    """
    src, dst = Path(src), Path(dst)
    if not src.is_dir():
        raise FileNotFoundError(f"no cache directory at {src}")
    src_cache = ResultCache(src)
    dst_cache = ResultCache(dst)
    records = 0
    for key in src_cache.keys():
        if key not in dst_cache:
            dst_cache.put(src_cache.get(key))
            records += 1
    stages = 0
    src_stages = StageCache(src)
    if len(src_stages):
        dst_stages = StageCache(dst)
        for key, value in src_stages.items():
            if dst_stages.peek(key) != value:
                dst_stages._append(src_stages.stage_of(key), key, value)
                stages += 1
    counters = _load_sidecar(src / STATS_FILENAME)
    if counters:
        _merge_sidecar(dst / STATS_FILENAME, counters)
    return {"records": records, "stages": stages}


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
    by engine runs into the sidecar counter (absent counters read as 0).
    Read-only: a missing cache reports zero entries and is not created.
    """
    cache = _open_existing(root)
    counters = (
        _load_sidecar(cache.root / STATS_FILENAME) if cache is not None else {}
    )
    hits = counters.get("memory_hits", 0) + counters.get("disk_hits", 0)
    lookups = hits + counters.get("misses", 0)
    versions: dict[str, int] = {}
    if cache is not None:
        for key in cache.keys():
            version = _record_version(cache.get(key))
            versions[version] = versions.get(version, 0) + 1
    from ..analytic.store import CalibrationStore

    # Opening a journal creates no file, and the directory exists.
    stage_entries = len(StageCache(root)) if cache is not None else 0
    calibration_entries = (
        len(CalibrationStore(root)) if cache is not None else 0
    )
    return {
        "path": str(Path(root) / ResultCache.FILENAME),
        "entries": len(cache) if cache is not None else 0,
        "bytes": (
            cache.path.stat().st_size
            if cache is not None and cache.path.exists()
            else 0
        ),
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

    A missing cache directory is a no-op, never created.
    """
    from ..analytic.store import CalibrationStore

    cache = _open_existing(root)
    if cache is None:
        return 0
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
    from ..api.scenario import CODE_MODEL_VERSION

    if not record:
        return "unknown"
    version = record.get("model_version")
    if version:
        return str(version)
    try:
        if Job.from_params(record["job"]).key == record["key"]:
            return CODE_MODEL_VERSION
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
    from ..api.scenario import CODE_MODEL_VERSION

    keep = keep_version or CODE_MODEL_VERSION
    cache = _open_existing(root)
    if cache is None:
        return 0, 0
    counts = cache.journal.rewrite(lambda r: _record_version(r) == keep)
    StageCache(cache.root).journal.rewrite(
        lambda r: r.get("model_version") == keep
    )
    return counts

"""The shared ``Journal`` behind the result, stage and calibration stores.

Every store is a typed index over one journal, so each property below is
checked through all three public store APIs: a put never decodes its own
line, a racer's line that lands between the tail read and the write is
still indexed, a torn fragment costs only itself (the next append
starts a new line), and a second instance adopts another writer's
appends on ``refresh()``.  The record cache's index holds each line's
span, and a lookup reads that one line back, checked.
"""

import gc
import hashlib
import json
import os
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import racecheck
from repro.analytic.store import (
    CalibrationRecord,
    CalibrationStore,
    calibration_key,
)
from repro.api import scenario as scenario_module
from repro.api.scenario import CODE_MODEL_VERSION
from repro.engine.cache import (
    StageCache,
    TieredCache,
    cache_clear,
    cache_gc,
    cache_stats,
    merge_cache_dirs,
)
from repro.sweep import cache as cache_module
from repro.sweep.cache import (
    MAX_LINE,
    SPAN_BITS,
    Journal,
    ResultCache,
    _FileLock,
    atomic_append,
    encode_line,
)


class _Results:
    """Adapter: entry ``i`` of a ResultCache."""

    cls = ResultCache

    @staticmethod
    def record(i: int) -> dict:
        return {
            "key": f"r-{i}",
            "job": {"capacity_mib": i},
            "model_version": "test",
            "status": "ok",
            "metrics": {"edp": float(i)},
        }

    @classmethod
    def put(cls, store, i: int) -> None:
        store.put(cls.record(i))

    @classmethod
    def line(cls, i: int) -> str:
        return json.dumps(cls.record(i), sort_keys=True) + "\n"

    @classmethod
    def has(cls, store, i: int) -> bool:
        return store.get(f"r-{i}") == cls.record(i)


class _Stages:
    """Adapter: entry ``i`` of a StageCache (a cycles memo)."""

    cls = StageCache

    @staticmethod
    def put(store, i: int) -> None:
        store.put_cycles(f"c-{i}", float(i))

    @staticmethod
    def line(i: int) -> str:
        record = {"stage": "cycles", "key": f"c-{i}", "value": float(i),
                  "model_version": CODE_MODEL_VERSION}
        return json.dumps(record, sort_keys=True) + "\n"

    @staticmethod
    def has(store, i: int) -> bool:
        return store.peek(f"c-{i}") == float(i)


class _Calibrations:
    """Adapter: entry ``i`` of a CalibrationStore (a live dotp fit)."""

    cls = CalibrationStore
    ARCH = {"capacity_mib": 1, "num_cores": 16, "word_bytes": 4, "arch": {}}

    @classmethod
    def record(cls, i: int) -> CalibrationRecord:
        dims, probes = (64 + i, 128 + i), (256 + i,)
        return CalibrationRecord(
            key=calibration_key("dotp", cls.ARCH, dims, probes,
                                CODE_MODEL_VERSION),
            workload="dotp", arch_class=cls.ARCH,
            model_version=CODE_MODEL_VERSION, calibration_dims=dims,
            probe_dims=probes, setup_cycles=10.0, factor=1.0 + i,
            contention_factor=0.0, error_bound=0.05, achieved_error=0.01,
            residuals={str(probes[0]): 0.01},
        )

    @classmethod
    def put(cls, store, i: int) -> None:
        store.put(cls.record(i))

    @classmethod
    def line(cls, i: int) -> str:
        return json.dumps(cls.record(i).to_json(), sort_keys=True) + "\n"

    @classmethod
    def has(cls, store, i: int) -> bool:
        return store.get(cls.record(i).key) == cls.record(i)


STORES = [
    pytest.param(_Results, id="results"),
    pytest.param(_Stages, id="stages"),
    pytest.param(_Calibrations, id="calibrations"),
]


def _data_file(adapter, root):
    return root / adapter.cls.FILENAME


@pytest.mark.parametrize("adapter", STORES)
class TestJournalStores:
    def test_put_decodes_no_json_for_its_own_line(
        self, adapter, tmp_path, monkeypatch
    ):
        store = adapter.cls(tmp_path)
        adapter.put(store, 0)
        calls = []
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        adapter.put(store, 1)
        assert calls == []
        assert adapter.has(store, 1)
        # The offset moved past the line: nothing is left to read.
        assert store.refresh() == 0
        monkeypatch.undo()
        fresh = adapter.cls(tmp_path)
        assert len(fresh) == 2 and adapter.has(fresh, 1)

    def test_racer_line_before_our_write_is_indexed(
        self, adapter, tmp_path, monkeypatch
    ):
        store = adapter.cls(tmp_path)
        adapter.put(store, 0)
        real_append = cache_module.atomic_append

        def racing_append(path, line):
            # Another writer's line lands between our tail read and
            # our write (the lock is held: this models a writer that
            # does not take it, or a platform without flock).
            real_append(path, adapter.line(7))
            return real_append(path, line)

        monkeypatch.setattr(cache_module, "atomic_append", racing_append)
        adapter.put(store, 1)
        monkeypatch.undo()
        assert adapter.has(store, 7)
        assert adapter.has(store, 1)
        assert store.refresh() == 0
        assert len(adapter.cls(tmp_path)) == 3

    def test_torn_fragment_then_append_recovers(self, adapter, tmp_path):
        writer = adapter.cls(tmp_path)
        adapter.put(writer, 0)
        # A crashed writer's partial record, with no newline.
        with _data_file(adapter, tmp_path).open("ab") as fh:
            fh.write(b'{"key": "torn-')
        fresh = adapter.cls(tmp_path)
        assert len(fresh) == 1  # fragment ignored
        # The next append starts a new line: the fragment stays one
        # corrupt line, which every reader skips, and both appends
        # after it reach every reader.
        adapter.put(writer, 1)
        adapter.put(writer, 2)
        assert adapter.has(writer, 1) and adapter.has(writer, 2)
        assert fresh.refresh() == 2
        assert adapter.has(fresh, 1) and adapter.has(fresh, 2)
        assert len(fresh) == 3
        reloaded = adapter.cls(tmp_path)
        assert len(reloaded) == 3
        assert all(adapter.has(reloaded, i) for i in range(3))

    def test_refresh_adopts_another_instances_appends(
        self, adapter, tmp_path
    ):
        a = adapter.cls(tmp_path)
        b = adapter.cls(tmp_path)
        adapter.put(b, 3)
        assert len(a) == 0  # not yet folded in
        assert a.refresh() == 1
        assert adapter.has(a, 3)
        assert a.refresh() == 0  # idempotent, cheap
        adapter.put(a, 3)  # already present: adopted, not appended
        assert _data_file(adapter, tmp_path).read_text().count("\n") == 1


class TestTornFragment:
    """A killed run's torn final fragment costs only itself: the next
    append starts a new line instead of being glued onto it."""

    FRAGMENT = b'{"key": "zz", "sea'

    def _tear(self, path):
        with path.open("ab") as fh:
            fh.write(self.FRAGMENT)

    def test_result_cache_put_from_a_new_writer(self, tmp_path):
        ResultCache(tmp_path).put(_Results.record(1))
        self._tear(tmp_path / ResultCache.FILENAME)
        writer = ResultCache(tmp_path)
        writer.put(_Results.record(2))
        assert sorted(writer.keys()) == ["r-1", "r-2"]
        assert sorted(ResultCache(tmp_path).keys()) == ["r-1", "r-2"]
        lines = (tmp_path / ResultCache.FILENAME).read_bytes().splitlines()
        assert lines[1] == self.FRAGMENT

    def test_stage_cache_physical_line_and_group_commit(self, tmp_path):
        from repro.api import Pipeline, Scenario

        result = Pipeline().implement(Scenario(capacity_mib=2, flow="3D"))
        StageCache(tmp_path).put_physical("p-0", result)
        self._tear(tmp_path / StageCache.FILENAME)
        writer = StageCache(tmp_path)
        writer.put_physical("p-1", result)
        self._tear(tmp_path / StageCache.FILENAME)
        # An engine batch's group commit: the queued lines go out as one
        # append, which starts a new line too.
        writer.open_batch()
        writer.put_physical("p-2", result)
        writer.put_cycles("c-3", 3.0)
        writer.commit(close=True)
        fresh = StageCache(tmp_path)
        assert sorted(key for key, _ in fresh.items()) == [
            "c-3", "p-0", "p-1", "p-2"
        ]
        assert all(fresh.get_physical(f"p-{i}") == result for i in range(3))
        assert fresh.get_cycles("c-3") == 3.0


class TestJournal:
    def test_undecodable_lines_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with _FileLock(tmp_path / "log.lock"):
            atomic_append(path, "[1, 2]\n")  # parses, but not a record
            atomic_append(path, '{"no_key": 1}\n')
            atomic_append(path, '{"key": "k", "v": 5}\n')
        journal = Journal(
            path, lambda record, span: (record["key"], record["v"])
        )
        assert journal.index == {"k": 5}
        assert journal.offset == path.stat().st_size


def _old_record(i: int) -> dict:
    return {**_Results.record(i), "key": f"old-{i}", "model_version": "old"}


def _new_record(i: int) -> dict:
    return {**_Results.record(i), "key": f"new-{i}",
            "model_version": CODE_MODEL_VERSION}


class _NoInodes:
    """``os`` as the journal sees it where ``stat`` reports no inode."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def _zeroed(st):
        return os.stat_result([st.st_mode, 0, *list(st)[2:]])

    def stat(self, path):
        return self._zeroed(os.stat(path))

    def fstat(self, fd):
        return self._zeroed(os.fstat(fd))


class TestReplacedJournal:
    """A long-lived reader follows another process's ``repro cache gc``.

    The gc rewrites the journal into a new file and renames it over the
    old one.  The reader's offset points into the old file, so it must
    notice the replacement (a new inode) and read the new file from the
    start, into the index its store aliases; otherwise it keeps serving
    pruned entries and, once the new file outgrows the old offset, reads
    from the middle of a line.
    """

    def test_result_cache_reader(self, tmp_path):
        writer = ResultCache(tmp_path)
        for i in range(20):
            writer.put(_old_record(i))
        reader = ResultCache(tmp_path)
        assert len(reader) == 20
        assert cache_gc(tmp_path) == (0, 20)
        gc_writer = ResultCache(tmp_path)
        gc_writer.put(_new_record(1))
        assert reader.refresh() == 1
        assert reader._records is reader.journal.index  # refilled in place
        assert sorted(reader.keys()) == ["new-1"]
        assert reader.get("old-0") is None
        assert reader.get("new-1") == _new_record(1)
        for i in range(2, 40):  # the new file outgrows the old offset
            gc_writer.put(_new_record(i))
        assert reader.refresh() == 38
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 39
        assert sorted(reader.keys()) == sorted(fresh.keys())
        assert all(reader.get(k) == fresh.get(k) for k in fresh.keys())

    def test_stage_cache_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_module, "CODE_MODEL_VERSION", "old")
        writer = StageCache(tmp_path)
        for i in range(20):
            writer.put_cycles(f"old-{i}", float(i))
        monkeypatch.undo()
        reader = StageCache(tmp_path)
        assert len(reader) == 20
        cache_gc(tmp_path)  # prunes the 20 old memos
        gc_writer = StageCache(tmp_path)
        assert len(gc_writer) == 0
        gc_writer.put_cycles("new-1", 1.0)
        assert reader.refresh() == 1
        assert reader._entries is reader.journal.index
        assert reader.peek("old-0") is None
        assert reader.get_cycles("new-1") == 1.0
        for i in range(2, 40):
            gc_writer.put_cycles(f"new-{i}", float(i))
        assert reader.refresh() == 38
        fresh = StageCache(tmp_path)
        assert len(fresh) == 39
        assert reader.items() == fresh.items()

    def test_a_reader_across_two_rewrites(self, tmp_path):
        # Each rewrite frees the inode number of the file it replaces,
        # so the second can hand the reader's number to the new file.
        writer, reader = ResultCache(tmp_path), ResultCache(tmp_path)
        writer.put(_new_record(0))
        with (tmp_path / ResultCache.FILENAME).open("ab") as fh:
            fh.write(b'{"key": "torn-')
        reader.put(_new_record(1))
        writer.journal.rewrite(lambda record: True)
        writer.journal.rewrite(lambda record: True)
        rerun = {**_new_record(0), "status": "rerun"}
        writer.put(rerun)
        reader.refresh()
        assert reader.get("new-0") == rerun
        assert reader.get("new-1") == _new_record(1)

    def test_reader_after_cache_clear(self, tmp_path):
        writer = ResultCache(tmp_path)
        for i in range(20):
            writer.put(_new_record(i))
        reader = ResultCache(tmp_path)
        assert cache_clear(tmp_path) == 20
        ResultCache(tmp_path).put(_new_record(99))
        assert reader.refresh() == 1
        assert sorted(reader.keys()) == ["new-99"]

    def test_unchanged_file_costs_one_stat(self, tmp_path, monkeypatch):
        ResultCache(tmp_path).put(_new_record(0))
        reader = ResultCache(tmp_path)
        calls = []

        class _CountingOS:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(os, name)

        monkeypatch.setattr(cache_module, "os", _CountingOS())
        assert reader.refresh() == 0
        assert calls == ["stat"]

    def test_platform_without_inodes_falls_back_to_size(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "os", _NoInodes())
        writer = ResultCache(tmp_path)
        for i in range(20):
            writer.put(_old_record(i))
        reader = ResultCache(tmp_path)
        assert cache_gc(tmp_path) == (0, 20)
        ResultCache(tmp_path).put(_new_record(1))
        # Shorter than the reader's offset: read again from the start.
        assert reader.refresh() == 1
        assert sorted(reader.keys()) == ["new-1"]


def _keyed(i: int) -> dict:
    """A record under a sha256-sized key, as the engine writes them."""
    key = hashlib.sha256(str(i).encode()).hexdigest()
    return {**_Results.record(i), "key": key}


class TestSpanIndex:
    """``ResultCache`` indexes each key by its line's span, not its record:
    a lookup reads that one line back, checked, and only the engine's
    memory tier keeps record dicts."""

    def test_disk_tier_holds_under_256_bytes_per_record(
        self, tmp_path, monkeypatch
    ):
        # The race detector's bounded diagnostic trace is not the tier's.
        monkeypatch.setattr(racecheck, "_enabled", False)
        cache = ResultCache(tmp_path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2000):
                cache.put(_keyed(i))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 2000
        assert held / 2000 < 256, f"{held / 2000:.0f} bytes per record"
        assert cache.get(_keyed(1999)["key"]) == _keyed(1999)

    def test_a_get_is_one_line_read_back(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(_keyed(i))
        span = cache.journal.index[_keyed(1)["key"]]
        offset, length = span >> SPAN_BITS, span & (MAX_LINE - 1)
        data = (tmp_path / ResultCache.FILENAME).read_bytes()
        assert data[offset:offset + length] == encode_line(_keyed(1))
        assert ResultCache(tmp_path).journal.index == cache.journal.index

    def test_a_wrong_span_is_one_refresh_then_a_miss(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        a, b = _keyed(1), _keyed(2)
        cache.put(a)
        cache.put(b)
        refreshes = []
        real = cache.journal.refresh
        monkeypatch.setattr(
            cache.journal, "refresh", lambda: refreshes.append(1) or real()
        )
        cache.journal.index[a["key"]] = cache.journal.index[b["key"]]
        assert cache.get(a["key"]) is None  # never b's record
        assert refreshes == [1]
        assert cache.get(b["key"]) == b and refreshes == [1]

    def test_a_replaced_file_is_one_refresh_then_a_hit(
        self, tmp_path, monkeypatch
    ):
        reader = ResultCache(tmp_path)
        for i in range(10):
            reader.put(_old_record(i) if i % 2 else _new_record(i))
        refreshes = []
        real = reader.journal.refresh
        monkeypatch.setattr(
            reader.journal, "refresh", lambda: refreshes.append(1) or real()
        )
        assert cache_gc(tmp_path) == (5, 5)  # another cache: a new file
        assert reader.get("new-8") == _new_record(8)
        assert refreshes == [1]
        assert reader.get("old-1") is None
        assert reader.get("new-0") == _new_record(0)
        assert refreshes == [1]

    def test_re_put_appends_and_the_last_record_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, second = _keyed(1), {**_keyed(1), "metrics": {"edp": -1.0}}
        cache.put(first)
        cache.put(dict(first))  # equal: read back and adopted
        cache.put(second)
        path = tmp_path / ResultCache.FILENAME
        assert path.read_bytes().count(b"\n") == 2
        assert cache.get(first["key"]) == second
        assert ResultCache(tmp_path).get(first["key"]) == second

    def test_a_line_of_16_mib_is_neither_written_nor_indexed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_keyed(0))
        path = tmp_path / ResultCache.FILENAME
        size = path.stat().st_size
        huge = {"key": "huge", "blob": "x" * MAX_LINE}
        cache.put(huge)
        assert path.stat().st_size == size
        assert "huge" not in cache and cache.get("huge") is None
        # One another writer left: skipped, and the spans after it hold.
        with _FileLock(tmp_path / ResultCache.LOCKNAME):
            atomic_append(path, encode_line(huge))
        cache.put(_keyed(1))
        fresh = ResultCache(tmp_path)
        assert sorted(fresh.keys()) == sorted(
            [_keyed(0)["key"], _keyed(1)["key"]]
        )
        assert fresh.get(_keyed(1)["key"]) == _keyed(1)
        assert cache.get(_keyed(1)["key"]) == _keyed(1)

    def test_whole_cache_readers_read_no_line_back(
        self, tmp_path, monkeypatch
    ):
        src, dst = tmp_path / "src", tmp_path / "dst"
        writer = ResultCache(src)
        for i in range(6):
            writer.put(_old_record(i) if i % 2 else _new_record(i))
        writer.put({**_new_record(0), "status": "rerun"})  # last one wins
        ResultCache(dst).put(_new_record(2))

        def no_reads(*args):
            raise AssertionError("a whole-cache reader read one line")

        monkeypatch.setattr(Journal, "read", no_reads)
        stats = cache_stats(src)
        assert stats["entries"] == 6
        assert stats["versions"] == {CODE_MODEL_VERSION: 3, "old": 3}
        assert merge_cache_dirs(src, dst)["records"] == 5
        monkeypatch.undo()
        merged = ResultCache(dst)
        assert merged.get("new-0") == {**_new_record(0), "status": "rerun"}
        assert len(merged) == 6

    def test_a_disk_read_does_not_hold_the_tier_lock(self, tmp_path):
        tiered = TieredCache(disk=ResultCache(tmp_path))
        tiered.put(_keyed(0))  # in the memory tier too
        tiered.disk.put(_keyed(1))  # on disk only
        entered, release = threading.Event(), threading.Event()

        def slow_get(key):
            entered.set()
            release.wait(10)
            return None

        tiered.disk.get = slow_get
        reader = threading.Thread(
            target=tiered.get, args=(_keyed(1)["key"],)
        )
        reader.start()
        try:
            assert entered.wait(10)
            hit = []
            other = threading.Thread(
                target=lambda: hit.append(tiered.get(_keyed(0)["key"]))
            )
            other.start()
            other.join(2)
            assert hit == [_keyed(0)]  # served while the disk read waits
        finally:
            release.set()
            reader.join(10)
        assert not reader.is_alive()
        assert (tiered.memory_hits, tiered.misses) == (1, 1)


_KEYS = ("k0", "k1", "k2", "k3")


def _versioned(key: str, version: int) -> dict:
    return {"key": key, "job": {"v": version}, "status": "ok",
            "model_version": "old" if version % 3 == 0 else "new"}


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 1), st.sampled_from(_KEYS),
                  st.integers(0, 5)),
        st.tuples(st.just("get"), st.integers(0, 1), st.sampled_from(_KEYS),
                  st.booleans()),
        st.tuples(st.just("tear"), st.integers(0, 1)),
        st.tuples(st.just("gc"), st.integers(0, 1), st.booleans()),
    ),
    max_size=30,
)


class TestSharedSpanIndexModel:
    """Two caches on one directory against a dict model of the file.

    A get returns the last complete record put under the key as of its
    cache's last look at the file: its own put or gc, a refresh, or the
    refresh that a file another cache replaced costs the first get of a
    key it holds.  A fresh reader finds exactly the model.
    """

    @settings(max_examples=80, deadline=None)
    @given(ops=_OPS)
    def test_every_get_is_the_last_complete_record(self, ops):
        with tempfile.TemporaryDirectory() as root:
            caches = [ResultCache(root), ResultCache(root)]
            path = os.path.join(root, ResultCache.FILENAME)
            model: dict[str, dict] = {}  # the last record put per key
            seen = [{}, {}]  # the model as each cache last looked
            replaced = [False, False]  # the other's gc since then
            for op in ops:
                who = op[1]
                if op[0] == "put":
                    _, _, key, version = op
                    caches[who].put(_versioned(key, version))
                    model[key] = _versioned(key, version)
                    seen[who], replaced[who] = dict(model), False
                elif op[0] == "get":
                    _, _, key, refresh = op
                    if refresh:
                        caches[who].refresh()
                    if refresh or (replaced[who] and key in seen[who]):
                        seen[who], replaced[who] = dict(model), False
                    assert caches[who].get(key) == seen[who].get(key)
                elif op[0] == "tear":  # a writer killed mid-line
                    with open(path, "ab") as fh:
                        fh.write(b'{"key": "k0", "job": {"v"')
                else:  # what `repro cache gc` runs, by either cache
                    prune = op[2]

                    def keep(record, prune=prune):
                        return not prune or record["model_version"] == "new"

                    caches[who].journal.rewrite(keep)
                    model = {k: r for k, r in model.items() if keep(r)}
                    seen[who], replaced[who] = dict(model), False
                    replaced[1 - who] = True
            for cache in [*caches, ResultCache(root)]:
                cache.refresh()
                assert {key: cache.get(key) for key in _KEYS} == {
                    key: model.get(key) for key in _KEYS
                }

"""The shared ``Journal`` behind the result, stage and calibration stores.

Every store is a typed index over one journal, so each property below is
checked through all three public store APIs: a put never decodes its own
line, a racer's line that lands between the tail read and the write is
still indexed, a torn fragment costs only itself (the next append
starts a new line), and a second instance adopts another writer's
appends on ``refresh()``.
"""

import json
import os

import pytest

from repro.analytic.store import (
    CalibrationRecord,
    CalibrationStore,
    calibration_key,
)
from repro.api import scenario as scenario_module
from repro.api.scenario import CODE_MODEL_VERSION
from repro.engine.cache import StageCache, cache_clear, cache_gc
from repro.sweep import cache as cache_module
from repro.sweep.cache import Journal, ResultCache, _FileLock, atomic_append


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
        journal = Journal(path, lambda record: (record["key"], record["v"]))
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

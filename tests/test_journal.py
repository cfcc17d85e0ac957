"""The shared ``Journal`` behind the result, stage and calibration stores.

Every store is a typed index over one journal, so each property below is
checked through all three public store APIs: a put never decodes its own
line, a racer's line that lands between the tail read and the write is
still indexed, a torn fragment costs only itself (the next append
starts a new line), and a second instance adopts another writer's
appends on ``refresh()``.
"""

import json

import pytest

from repro.analytic.store import (
    CalibrationRecord,
    CalibrationStore,
    calibration_key,
)
from repro.api.scenario import CODE_MODEL_VERSION
from repro.engine.cache import StageCache
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

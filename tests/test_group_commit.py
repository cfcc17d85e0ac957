"""Group commit: an engine batch writes each journal in one locked append.

Inside ``Engine.run_many`` new records and this process's stage memos
are queued and reach disk as one ``Journal.append`` per journal: when
the batch ends, when its generator is closed or its consumer raises, and
before a record is yielded once ``COMMIT_INTERVAL_S`` has passed since
the last commit.  The bytes on disk are those one put per record would
write.
"""

import collections
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import Pipeline, Scenario
from repro.engine import Engine
from repro.engine import core as engine_core
from repro.engine.cache import StageCache
from repro.sweep import cache as cache_module
from repro.sweep.cache import Journal, ResultCache, encode_line
from repro.sweep.spec import Job
from repro.sweep.store import point_to_record

REPO = Path(__file__).parent.parent

#: The paper grid: 4 capacities x 2 flows x 7 bandwidths.
PAPER_BANDWIDTHS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _grid(frequency: float = 1000.0) -> list[Scenario]:
    return [
        Scenario(capacity_mib=capacity, flow=flow, bandwidth=bandwidth,
                 target_frequency_mhz=frequency)
        for capacity in (1, 2, 4, 8) for flow in ("2D", "3D")
        for bandwidth in PAPER_BANDWIDTHS
    ]


def _memo_keys(scenarios) -> set[str]:
    return {key for s in scenarios for key in (s.physical_key, s.cycles_key)}


def _on_disk(root) -> tuple[set[str], set[str]]:
    """Record and memo keys a fresh reader in this process finds."""
    return (set(ResultCache(root).keys()),
            {key for key, _ in StageCache(root).items()})


_READER = (
    "import json, sys\n"
    "from repro.engine.cache import StageCache\n"
    "from repro.sweep.cache import ResultCache\n"
    "root = sys.argv[1]\n"
    "print(json.dumps([sorted(ResultCache(root).keys()),\n"
    "                  sorted(k for k, _ in StageCache(root).items())]))\n"
)


def _on_disk_in_another_process(root) -> tuple[set[str], set[str]]:
    """Record and memo keys a fresh reader in a new process finds."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _READER, str(root)],
        capture_output=True, text=True, env=env, check=True,
    )
    records, memos = json.loads(result.stdout)
    return set(records), set(memos)


@pytest.fixture
def appends(monkeypatch):
    """Counts ``atomic_append`` calls per data file name."""
    calls = collections.Counter()
    real = cache_module.atomic_append

    def counting(path, line):
        calls[os.path.basename(path)] += 1
        return real(path, line)

    monkeypatch.setattr(cache_module, "atomic_append", counting)
    return calls


@pytest.fixture
def no_periodic_commit(monkeypatch):
    """Only the batch's end (or close) commits, however slow the host."""
    monkeypatch.setattr(engine_core, "COMMIT_INTERVAL_S", float("inf"))


class TestOneAppendPerBatch:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_paper_grid_appends_once_per_journal(
        self, tmp_path, appends, no_periodic_commit, backend
    ):
        outcome = Engine(backend=backend, workers=2,
                         cache=ResultCache(tmp_path)).run(_grid())
        assert outcome.stats.evaluated == 56 and outcome.stats.failed == 0
        assert appends == {"results.jsonl": 1, "stages.jsonl": 1}
        records, memos = _on_disk(tmp_path)
        assert len(records) == 56 and len(memos) == 36

    def test_bytes_equal_one_put_per_record(self, tmp_path):
        """``serial`` writes the bytes of one put per memo and record, in
        evaluation order; ``thread`` writes the same lines in its
        completion order."""
        grid = _grid()
        for backend in ("serial", "thread"):
            Engine(backend=backend, workers=2,
                   cache=ResultCache(tmp_path / backend)).run(grid)
        # A directly built StageCache is never inside a batch: each memo
        # and record below is written by its own put.
        single = tmp_path / "single"
        results, stages = ResultCache(single), StageCache(single)
        for scenario in grid:
            point = Pipeline(stage_cache=stages).run(scenario)
            results.put(point_to_record(Job.from_scenario(scenario),
                                        point.to_design_point()))
        for name in (ResultCache.FILENAME, StageCache.FILENAME):
            expected = (single / name).read_bytes()
            assert (tmp_path / "serial" / name).read_bytes() == expected
            thread = (tmp_path / "thread" / name).read_bytes()
            assert sorted(thread.splitlines()) == sorted(expected.splitlines())

    def test_forked_pool_workers_write_their_memos_at_once(
        self, tmp_path, appends, no_periodic_commit
    ):
        """Workers forked mid-batch inherit the open batch of the
        process-wide memo, but they are other processes: each writes its
        memos itself instead of queueing lines no one commits, and the
        batch commits the records."""
        grid = _grid()
        fork = multiprocessing.get_context("fork")
        outcome = Engine(backend="process", workers=2, mp_context=fork,
                         cache=ResultCache(tmp_path)).run(grid)
        assert outcome.stats.evaluated == 56 and outcome.stats.failed == 0
        # The workers' appends are counted in the workers' copies.
        assert appends == {"results.jsonl": 1}
        assert _on_disk(tmp_path) == ({s.cache_key for s in grid},
                                      _memo_keys(grid))


class TestStoppedBatches:
    """What a batch yielded is on disk once it stops, however it stops."""

    K = 5

    def test_closed_generator_commits_what_it_yielded(
        self, tmp_path, no_periodic_commit
    ):
        grid = _grid()
        stream = Engine(backend="serial",
                        cache=ResultCache(tmp_path)).run_many(grid)
        for _ in range(self.K):
            next(stream)
        assert _on_disk(tmp_path) == (set(), set())  # queued, not written
        stream.close()
        first = grid[: self.K]
        assert _on_disk_in_another_process(tmp_path) == (
            {s.cache_key for s in first}, _memo_keys(first))

    def test_interrupted_callback_commits_what_it_saw(
        self, tmp_path, no_periodic_commit
    ):
        grid = _grid()
        before = []

        def on_result(done, total, record):
            if done == self.K:
                before.append(_on_disk(tmp_path))
                raise KeyboardInterrupt

        engine = Engine(backend="serial", cache=ResultCache(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            engine.run(grid, on_result=on_result)
        assert before == [(set(), set())]
        first = grid[: self.K]
        assert _on_disk_in_another_process(tmp_path) == (
            {s.cache_key for s in first}, _memo_keys(first))


class TestPeriodicCommit:
    def test_record_is_on_disk_once_the_interval_passed(
        self, tmp_path, monkeypatch
    ):
        clock = [0.0]
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        grid = _grid()[:6]
        stream = Engine(backend="serial",
                        cache=ResultCache(tmp_path)).run_many(grid)
        committed: set[str] = set()
        for i in range(len(grid)):
            advanced = i % 2 == 1
            if advanced:
                clock[0] += engine_core.COMMIT_INTERVAL_S
            _, record = next(stream)
            assert record["key"] == grid[i].cache_key
            if advanced:  # every record so far, this one included
                committed = {s.cache_key for s in grid[: i + 1]}
            records, memos = _on_disk(tmp_path)
            assert records == committed
            assert memos == _memo_keys(s for s in grid if s.cache_key in committed)
        with pytest.raises(StopIteration):
            next(stream)
        assert _on_disk(tmp_path)[0] == {s.cache_key for s in grid}


class TestConcurrentBatches:
    def test_two_runs_on_one_engine_leave_all_records(
        self, tmp_path, appends, no_periodic_commit
    ):
        """The service's case: two request threads share one engine, each
        fanning out to pool threads, so puts land in the shared queues
        while the other batch commits them.  Every record and memo is on
        disk once, in at most one append per batch."""
        engine = Engine(backend="thread", workers=4,
                        cache=ResultCache(tmp_path))
        grids = [_grid(1000.0), _grid(900.0)]
        both_open = threading.Barrier(2, timeout=30)
        errors = []

        def run(grid):
            def on_result(done, total, record):
                if done == 1:
                    both_open.wait()

            try:
                outcome = engine.run(grid, on_result=on_result)
                assert outcome.stats.evaluated == len(grid)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(g,)) for g in grids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        records, memos = _on_disk_in_another_process(tmp_path)
        assert records == {s.cache_key for g in grids for s in g}
        assert memos == _memo_keys(s for g in grids for s in g)
        for name in (ResultCache.FILENAME, StageCache.FILENAME):
            lines = (tmp_path / name).read_bytes().splitlines()
            assert len(lines) == len(set(lines))  # nothing written twice
        assert appends["results.jsonl"] <= 2
        assert appends["stages.jsonl"] <= 2


class TestMultiEntryAppend:
    @staticmethod
    def _entry(key: str, value: int):
        record = {"key": key, "v": value}
        return key, record, encode_line(record)

    def test_racer_line_and_repeated_key(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        journal = Journal(
            path, lambda record, span: (record["key"], record["v"])
        )
        real = cache_module.atomic_append
        written = []

        def racing_append(target, data):
            # Another writer's line lands between our tail read and our
            # multi-entry write.
            real(target, encode_line({"key": "racer", "v": 7}))
            written.append(data)
            return real(target, data)

        monkeypatch.setattr(cache_module, "atomic_append", racing_append)
        appended = journal.append([
            self._entry("a", 1), self._entry("b", 2), self._entry("a", 1),
        ])
        monkeypatch.undo()
        assert appended == 2
        assert written == [encode_line({"key": "a", "v": 1})
                           + encode_line({"key": "b", "v": 2})]
        assert journal.index == {"racer": 7, "a": 1, "b": 2}
        assert journal.offset == path.stat().st_size
        assert journal.refresh() == 0
        assert Journal(path, journal.decode).index == journal.index

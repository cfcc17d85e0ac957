"""Multi-writer safety of the disk cache tiers.

Several processes share one cache directory — engines, service workers,
and ``repro cache merge`` — so concurrent appends must never tear,
duplicate, or drop records, and the counter sidecar must merge, not
clobber.
"""

import json
import multiprocessing
import os

import pytest

from repro.engine.cache import (
    STATS_FILENAME,
    StageCache,
    TieredCache,
    cache_stats,
    merge_cache_dirs,
)
from repro.sweep.cache import ResultCache, _FileLock, atomic_append


def _record(key: str, payload: int = 0) -> dict:
    return {
        "key": key,
        "job": {"capacity_mib": payload},
        "model_version": "test",
        "status": "ok",
        "metrics": {"edp": float(payload)},
    }


def _writer_proc(root: str, keys: list, start_gate) -> None:
    start_gate.wait()
    cache = ResultCache(root)
    for key in keys:
        cache.put(_record(key, payload=int(key.split("-")[-1])))


def _stage_writer_proc(root: str, keys: list, start_gate) -> None:
    start_gate.wait()
    stages = StageCache(root)
    for key in keys:
        stages.put_cycles(key, float(int(key.split("-")[-1])))


def _counter_proc(root: str, repeats: int, start_gate) -> None:
    start_gate.wait()
    cache = TieredCache(disk=ResultCache(root))
    for i in range(repeats):
        cache.get(f"miss-{os.getpid()}-{i}")  # counted as a miss
        cache.flush_stats()


class TestConcurrentResultWriters:
    def test_no_torn_or_duplicate_records(self, tmp_path):
        """4 processes x 40 keys with heavy overlap: every record lands
        exactly once, every line parses."""
        root = str(tmp_path)
        keys = [f"key-{i}" for i in range(40)]
        # Every process writes every key: maximal write contention.
        gate = multiprocessing.Event()
        procs = [
            multiprocessing.Process(
                target=_writer_proc, args=(root, keys, gate)
            )
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        gate.set()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        lines = (tmp_path / ResultCache.FILENAME).read_text().splitlines()
        parsed = [json.loads(line) for line in lines]  # no torn lines
        seen_keys = [record["key"] for record in parsed]
        assert sorted(set(seen_keys)) == sorted(keys)
        # The locked read-check-append means identical records are
        # written once, not once per process.
        assert len(seen_keys) == len(set(seen_keys))

        cache = ResultCache(root)
        assert len(cache) == len(keys)
        for key in keys:
            assert cache.get(key)["metrics"]["edp"] == float(
                key.split("-")[-1]
            )

    def test_refresh_adopts_other_writers(self, tmp_path):
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        b.put(_record("k-1"))
        assert a.get("k-1") is None  # not yet folded in
        assert a.refresh() == 1
        assert a.get("k-1") == _record("k-1")
        assert a.refresh() == 0  # idempotent, cheap

    def test_torn_final_line_is_skipped_and_recovered(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_record("k-0"))
        # Simulate a crashed writer: a partial record with no newline.
        with (tmp_path / ResultCache.FILENAME).open("ab") as fh:
            fh.write(b'{"key": "torn-')
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 1  # fragment ignored
        # A later append completes the file; the now-corrupt joined line
        # is skipped on parse, the new record still loads.
        # Appends take the sidecar lock like any disciplined writer
        # would (and so the REPRO_RACE_CHECK=1 run stays clean).
        with _FileLock(tmp_path / ResultCache.LOCKNAME):
            atomic_append(
                tmp_path / ResultCache.FILENAME,
                json.dumps(_record("k-1"), sort_keys=True) + "\n",
            )
            atomic_append(
                tmp_path / ResultCache.FILENAME,
                json.dumps(_record("k-2"), sort_keys=True) + "\n",
            )
        assert fresh.refresh() == 1
        assert fresh.get("k-2") is not None
        assert "torn-" not in list(fresh.keys())


class TestConcurrentStageWriters:
    def test_stage_memos_survive_contention(self, tmp_path):
        root = str(tmp_path)
        keys = [f"stage-{i}" for i in range(30)]
        gate = multiprocessing.Event()
        procs = [
            multiprocessing.Process(
                target=_stage_writer_proc, args=(root, keys, gate)
            )
            for _ in range(3)
        ]
        for proc in procs:
            proc.start()
        gate.set()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        lines = (tmp_path / StageCache.FILENAME).read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        seen = [entry["key"] for entry in parsed]
        assert sorted(set(seen)) == sorted(keys)
        assert len(seen) == len(set(seen))  # deduplicated under the lock
        stages = StageCache(root)
        for key in keys:
            assert stages.get_cycles(key) == float(key.split("-")[-1])


class TestConcurrentCounters:
    # Each writer's first merge is due at once and the rest wait for its
    # exit, which a fork- and a spawn-started child reach differently.
    @pytest.mark.parametrize("method", [
        pytest.param(method, marks=pytest.mark.skipif(
            method not in multiprocessing.get_all_start_methods(),
            reason=f"no {method} start method here",
        ))
        for method in ("fork", "spawn")
    ])
    def test_sidecar_merges_instead_of_clobbering(self, tmp_path, method):
        root = str(tmp_path)
        context = multiprocessing.get_context(method)
        gate = context.Event()
        procs = [
            context.Process(
                target=_counter_proc, args=(root, 25, gate)
            )
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        gate.set()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        counters = json.loads((tmp_path / STATS_FILENAME).read_text())
        assert counters["misses"] == 4 * 25


class TestMergeCacheDirs:
    def test_merge_folds_records_stages_and_counters(self, tmp_path):
        src, dst = tmp_path / "worker", tmp_path / "shared"
        src_cache, dst_cache = ResultCache(src), ResultCache(dst)
        for i in range(4):
            src_cache.put(_record(f"s-{i}", payload=i))
        dst_cache.put(_record("s-0", payload=0))  # overlap
        dst_cache.put(_record("d-0", payload=9))
        StageCache(src).put_cycles("c-1", 123.0)
        (src / STATS_FILENAME).write_text(json.dumps({"misses": 7}))
        (dst / STATS_FILENAME).write_text(json.dumps({"misses": 5}))

        merged = merge_cache_dirs(src, dst)
        assert merged == {"records": 3, "stages": 1}

        combined = ResultCache(dst)
        assert len(combined) == 5
        assert combined.get("s-3")["metrics"]["edp"] == 3.0
        assert StageCache(dst).get_cycles("c-1") == 123.0
        assert json.loads((dst / STATS_FILENAME).read_text())["misses"] == 12
        # Re-merging is a no-op: everything is already present.
        assert merge_cache_dirs(src, dst) == {"records": 0, "stages": 0}

    def test_merge_missing_source_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            merge_cache_dirs(tmp_path / "nope", tmp_path / "dst")


class TestEngineLevelRefresh:
    def test_second_engine_sees_first_engines_results(self, tmp_path):
        """Two engines share a directory; the one built first still gets
        disk hits for results the other wrote after both were opened."""
        from repro.engine import Engine
        from repro.sweep import SweepSpec

        spec = SweepSpec(
            capacities_mib=(1, 2), flows=("2D",), bandwidths=(4.0,)
        )
        early = Engine(cache=ResultCache(tmp_path))  # opened before any write
        other = Engine(cache=ResultCache(tmp_path))
        other.run(spec.jobs())
        outcome = early.run(spec.jobs())
        assert outcome.stats.failed == 0
        assert outcome.stats.cached == len(outcome.records)

    def test_cache_stats_document_matches_cli_json(self, tmp_path):
        """`/v1/cache` and `repro cache stats --json` are one code path."""
        from repro.engine import Engine
        from repro.sweep import SweepSpec

        Engine(cache=ResultCache(tmp_path)).run(
            SweepSpec(
                capacities_mib=(1,), flows=("2D",), bandwidths=(4.0,)
            ).jobs()
        )
        stats = cache_stats(tmp_path)
        assert stats["entries"] == 1
        assert stats["stores"] == 1
        for field in ("memory_hits", "disk_hits", "misses", "hit_rate",
                      "stage_entries", "bytes", "versions"):
            assert field in stats

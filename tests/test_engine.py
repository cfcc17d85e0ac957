"""Tests for repro.engine — backends, two-tier cache, streaming engine."""

import json

import pytest

from repro.engine import (
    BACKENDS,
    Engine,
    LRUCache,
    TieredCache,
    available_backends,
    cache_clear,
    cache_gc,
    cache_stats,
    evaluate_job,
    register_backend,
    resolve_backend,
)
from repro.engine.cache import STATS_FILENAME
from repro.sweep import Job, ResultCache, ResultStore, SweepSpec

#: The paper's full 56-point grid: 4 capacities x 2 flows x 7 bandwidths.
PAPER_GRID = SweepSpec(
    bandwidths=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
)

SMALL = SweepSpec(capacities_mib=(1, 8), bandwidths=(4.0, 64.0))


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert set(available_backends()) >= {"serial", "thread", "process"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("quantum")

    def test_default_resolution_follows_workers(self):
        assert type(resolve_backend(None, workers=0)).__name__ == "SerialBackend"
        assert type(resolve_backend(None, workers=1)).__name__ == "SerialBackend"
        assert type(resolve_backend(None, workers=4)).__name__ == "ProcessBackend"

    def test_instance_passthrough_and_bad_type(self):
        backend = resolve_backend("serial")
        assert resolve_backend(backend) is backend
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_backend_class_is_instantiated(self):
        from repro.engine import ThreadBackend

        backend = resolve_backend(ThreadBackend, workers=3)
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 3

    def test_engine_default_backend_honors_workers(self):
        assert type(Engine().backend).__name__ == "SerialBackend"
        assert type(Engine(workers=4).backend).__name__ == "ProcessBackend"

    def test_custom_backend_plugs_in(self):
        calls = []

        @register_backend("recording")
        class RecordingBackend:
            def __init__(self, workers=0, mp_context=None):
                pass

            def run(self, evaluate, jobs):
                from repro.engine.backends import run_one

                for job in jobs:
                    calls.append(job.key)
                    yield run_one(evaluate, job)

        try:
            outcome = Engine(backend="recording").run(SMALL.jobs())
            assert outcome.stats.evaluated == len(SMALL)
            assert len(calls) == len(SMALL)
        finally:
            BACKENDS.unregister("recording")


class TestBackendEquality:
    """serial == thread == process, bit for bit, on the 56-point grid."""

    @pytest.fixture(scope="class")
    def serial_outcome(self):
        return Engine(backend="serial").run(PAPER_GRID.jobs())

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matrix_matches_serial(self, backend, serial_outcome):
        assert len(serial_outcome.records) == 56
        assert serial_outcome.stats.failed == 0
        outcome = Engine(backend=backend, workers=4).run(PAPER_GRID.jobs())
        assert outcome.stats.failed == 0
        assert [j.key for j in outcome.jobs] == [
            j.key for j in serial_outcome.jobs
        ]
        # Bit-for-bit: identical records (metrics are floats, no
        # accumulation reordering anywhere in the evaluation path).
        def strip(record):
            return {k: v for k, v in record.items() if k != "source"}

        assert [strip(r) for r in outcome.records] == [
            strip(r) for r in serial_outcome.records
        ]
        assert outcome.points() == serial_outcome.points()


class TestLRUCache:
    def test_bounded_size_evicts_lru(self):
        lru = LRUCache(maxsize=2)
        lru.put("a", {"v": 1})
        lru.put("b", {"v": 2})
        assert lru.get("a") == {"v": 1}  # refreshes "a"
        lru.put("c", {"v": 3})  # evicts "b", the least recently used
        assert len(lru) == 2
        assert "b" not in lru
        assert lru.get("a") and lru.get("c")

    def test_zero_size_disables(self):
        lru = LRUCache(maxsize=0)
        lru.put("a", {"v": 1})
        assert len(lru) == 0
        assert lru.get("a") is None

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)


class TestTieredCache:
    def test_warm_repeats_never_touch_disk(self, tmp_path):
        engine = Engine(backend="serial", cache=ResultCache(tmp_path))
        cold = engine.run(SMALL.jobs())
        assert cold.stats.evaluated == len(SMALL)
        warm = engine.run(SMALL.jobs())
        assert warm.stats.evaluated == 0
        assert warm.stats.memory_hits == len(SMALL)
        assert warm.stats.disk_hits == 0

    def test_disk_tier_promotes_into_memory(self, tmp_path):
        cache = ResultCache(tmp_path)
        Engine(backend="serial", cache=cache).run(SMALL.jobs())
        # Fresh engine, same disk: first pass hits disk, second memory.
        engine = Engine(backend="serial", cache=ResultCache(tmp_path))
        first = engine.run(SMALL.jobs())
        assert first.stats.disk_hits == len(SMALL)
        second = engine.run(SMALL.jobs())
        assert second.stats.memory_hits == len(SMALL)
        assert second.stats.disk_hits == 0

    def test_memory_only_engine_still_dedups(self):
        engine = Engine(backend="serial", cache=None)
        assert engine.run(SMALL.jobs()).stats.evaluated == len(SMALL)
        assert engine.run(SMALL.jobs()).stats.evaluated == 0

    def test_lru_bound_applies_to_engine_tier(self):
        engine = Engine(backend="serial", cache=None, lru_size=2)
        engine.run(SMALL.jobs())  # 8 points through a 2-entry LRU
        assert len(engine.cache.memory) == 2

    def test_version_keyed_invalidation(self, tmp_path, monkeypatch):
        engine = Engine(backend="serial", cache=ResultCache(tmp_path))
        jobs = list(SMALL.jobs())
        assert engine.run(jobs).stats.evaluated == len(jobs)
        # A model-version bump changes every content address, so both
        # tiers miss: nothing stale is ever served.
        monkeypatch.setattr(
            "repro.api.scenario.CODE_MODEL_VERSION", "999.test"
        )
        bumped = [Job.from_params(j.params()) for j in jobs]
        assert bumped[0].key != jobs[0].key
        again = engine.run(bumped)
        assert again.stats.evaluated == len(jobs)
        assert again.stats.cached == 0

    def test_put_requires_key(self):
        with pytest.raises(ValueError):
            TieredCache().put({"status": "ok"})


def _fail_on_8mib(job):
    """Deterministically fail a subset of jobs (picklable, module-level)."""
    if job.capacity_mib == 8:
        raise RuntimeError("injected failure")
    return evaluate_job(job)


class TestEngine:
    def test_accepts_scenarios_and_jobs(self):
        from repro.api import Scenario

        scenario = Scenario(capacity_mib=1, flow="3D")
        job = Job.from_scenario(scenario)
        outcome = Engine().run([scenario, job])
        assert outcome.stats.total == 1  # same content address
        assert outcome.records[0]["key"] == job.key

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            Engine().run(["MemPool-3D-4MiB"])

    def test_run_many_streams_with_error_capture(self):
        engine = Engine(backend="serial", evaluate=_fail_on_8mib)
        seen = list(engine.run_many(SMALL.jobs()))
        assert len(seen) == len(SMALL)
        by_status = {r["status"] for _, r in seen}
        assert by_status == {"ok", "error"}
        failures = [r for _, r in seen if r["status"] != "ok"]
        assert len(failures) == 4  # 8 MiB x 2 flows x 2 bandwidths
        assert all("injected failure" in r["error"] for r in failures)

    def test_failures_not_cached_and_retried(self, tmp_path):
        cache = ResultCache(tmp_path)
        broken = Engine(
            backend="serial", cache=cache, evaluate=_fail_on_8mib
        ).run(SMALL.jobs())
        assert broken.stats.failed == 4
        healed = Engine(backend="serial", cache=cache).run(SMALL.jobs())
        assert healed.stats.cached == 4
        assert healed.stats.evaluated == 4
        assert healed.stats.failed == 0

    def test_on_result_counts_and_sources(self, tmp_path):
        cache = ResultCache(tmp_path)
        Engine(backend="serial", cache=cache).run(SMALL.jobs())
        events = []
        engine = Engine(
            backend="serial",
            cache=ResultCache(tmp_path),
            on_result=lambda done, total, r: events.append(
                (done, total, r["source"])
            ),
        )
        engine.run(SMALL.jobs())
        assert [e[0] for e in events] == list(range(1, len(SMALL) + 1))
        assert {e[1] for e in events} == {len(SMALL)}
        assert {e[2] for e in events} == {"cache"}

    def test_store_receives_every_record(self, tmp_path):
        store = ResultStore(tmp_path / "log.jsonl")
        engine = Engine(backend="serial", store=store)
        engine.run(SMALL.jobs())
        engine.run(SMALL.jobs())
        records = store.load()
        assert len(records) == 2 * len(SMALL)
        assert {r["source"] for r in records} == {"evaluated", "cache"}

    def test_records_carry_model_version(self):
        from repro.api.scenario import CODE_MODEL_VERSION

        outcome = Engine().run([Job(capacity_mib=1, flow="2D")])
        assert outcome.records[0]["model_version"] == CODE_MODEL_VERSION

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            Engine(workers=-1)


class TestOneBuildPerPoint:
    """The engine adopts the caller's scenarios: each point is built,
    validated and keyed once, never rebuilt into a second Scenario."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.api import Scenario

        calls = []
        original = Scenario.__post_init__

        def counting(scenario):
            calls.append(scenario)
            original(scenario)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        return calls

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_engine_builds_no_scenario_for_prebuilt_grid(self, builds,
                                                         backend):
        scenarios = [job.scenario() for job in PAPER_GRID.jobs()]
        builds.clear()
        outcome = Engine(backend=backend, workers=2).run(scenarios)
        assert outcome.stats.evaluated == 56
        assert outcome.stats.failed == 0
        assert len(builds) == 0

    def test_from_scenario_adopts_the_scenario(self):
        from repro.api import Scenario

        scenario = Scenario(capacity_mib=2, flow="3D", bandwidth=8)
        assert Job.from_scenario(scenario).scenario() is scenario

    def test_pickle_roundtrip_builds_no_scenario(self, builds):
        import pickle

        from repro.api import Scenario

        scenario = Scenario(capacity_mib=4, flow="3D", bandwidth=16,
                            arch={"core_kge": 80.0})
        builds.clear()
        job = Job.from_scenario(scenario)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.key == job.key
        assert clone.params() == job.params()
        assert clone == job
        assert len(builds) == 0

    def test_objective_reaches_neither_key_nor_params(self):
        from repro.api import Scenario

        edp = Job.from_scenario(Scenario(capacity_mib=1, flow="3D"))
        performance = Job.from_scenario(
            Scenario(capacity_mib=1, flow="3D", objective="performance")
        )
        assert performance.key == edp.key
        assert performance.params() == edp.params()


class TestOnePipelinePerEngine:
    """The default evaluation goes from a point to its record in one
    step: the process's one pipeline per (stage root, evaluation engine)
    runs the point, and its ``RunResult`` is what the record is built
    from."""

    @staticmethod
    def _grid(matrix_dim, target):
        from repro.api import Scenario

        return [
            Scenario(capacity_mib=capacity, flow=flow, bandwidth=bandwidth,
                     matrix_dim=matrix_dim, target_frequency_mhz=target)
            for capacity in (1, 2, 4, 8)
            for flow in ("2D", "3D")
            for bandwidth in (4.0, 16.0, 64.0)
        ]

    def test_evaluate_job_returns_the_run_result(self):
        from repro.api.pipeline import RunResult

        assert isinstance(evaluate_job(Job(capacity_mib=2, flow="3D")),
                          RunResult)

    def test_one_pipeline_per_stage_root_and_engine(self, tmp_path):
        from repro.engine.cache import stage_cache_for
        from repro.engine.core import _pipeline

        root = str(tmp_path)
        pipeline = _pipeline(root, "fast")
        assert _pipeline(root, "fast") is pipeline
        assert pipeline.stage_cache is stage_cache_for(root)
        assert _pipeline(root, "analytic") is not pipeline
        assert _pipeline(root, "analytic").engine == "analytic"
        assert _pipeline(None, "fast").stage_cache is None

    def test_new_points_import_nothing(self, tmp_path, monkeypatch):
        import builtins

        engine = Engine(cache=ResultCache(tmp_path))
        assert engine.run(self._grid(326400, 1000.0)).stats.evaluated == 24
        # A new matrix size and a new target: new cycles memos, and a
        # new physical stage for every layout.
        second = self._grid(65280, 800.0)
        before = engine.stage_counters()
        imports = []
        real_import = builtins.__import__

        def counting_import(name, *args, **kwargs):
            imports.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        outcome = engine.run(second)
        monkeypatch.undo()
        assert outcome.stats.evaluated == 24 and outcome.stats.failed == 0
        after = engine.stage_counters()
        assert after["physical_evals"] - before["physical_evals"] == 8
        assert after["cycles_evals"] - before["cycles_evals"] == 12
        assert imports == []


class TestCacheMaintenance:
    def test_stats_counts_entries_bytes_and_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = Engine(backend="serial", cache=cache)
        engine.run(SMALL.jobs())
        engine.run(SMALL.jobs())  # memory hits, flushed to the sidecar
        stats = cache_stats(tmp_path)
        assert stats["entries"] == len(SMALL)
        assert stats["bytes"] > 0
        assert stats["memory_hits"] == len(SMALL)
        assert stats["misses"] == len(SMALL)
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_stats_on_empty_cache(self, tmp_path):
        stats = cache_stats(tmp_path / "fresh")
        assert stats["entries"] == 0
        assert stats["hit_rate"] is None

    def test_maintenance_is_read_only_on_missing_cache(self, tmp_path):
        # A mistyped --cache-dir must never leave anything behind.
        missing = tmp_path / "typo-dir"
        assert cache_stats(missing)["entries"] == 0
        assert cache_clear(missing) == 0
        assert cache_gc(missing) == (0, 0)
        assert not missing.exists()

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        Engine(backend="serial", cache=cache).run(SMALL.jobs())
        assert cache_clear(tmp_path) == len(SMALL)
        assert len(ResultCache(tmp_path)) == 0
        assert not (tmp_path / STATS_FILENAME).exists()

    def test_gc_prunes_old_versions(self, tmp_path):
        from repro.api.scenario import CODE_MODEL_VERSION

        cache = ResultCache(tmp_path)
        Engine(backend="serial", cache=cache).run(SMALL.jobs())
        stale = {
            "key": "deadbeef",
            "job": {},
            "model_version": "1.obsolete",
            "status": "ok",
            "metrics": {},
        }
        cache.put(stale)
        kept, pruned = cache_gc(tmp_path)
        assert (kept, pruned) == (len(SMALL), 1)
        survivor = ResultCache(tmp_path)
        assert len(survivor) == len(SMALL)
        assert survivor.get("deadbeef") is None
        assert all(
            survivor.get(k)["model_version"] == CODE_MODEL_VERSION
            for k in survivor.keys()
        )

    def test_gc_keeps_requested_version_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        Engine(backend="serial", cache=cache).run(SMALL.jobs())
        kept, pruned = cache_gc(tmp_path, keep_version="1.obsolete")
        assert kept == 0
        assert pruned == len(SMALL)

    def test_gc_classifies_legacy_records_by_key_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        Engine(backend="serial", cache=cache).run(SMALL.jobs())
        # Strip the version stamps: gc must fall back to recomputing
        # keys from the stored job parameters.
        legacy = [
            {k: v for k, v in cache.get(key).items() if k != "model_version"}
            for key in cache.keys()
        ]
        cache.path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in legacy)
        )
        kept, pruned = cache_gc(tmp_path)
        assert (kept, pruned) == (len(SMALL), 0)

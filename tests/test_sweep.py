"""Tests for repro.sweep — spec, cache, executor, store, report."""

import json
import subprocess
import sys

import pytest

from repro.core.explorer import Explorer
from repro.sweep import (
    Job,
    ResultCache,
    ResultStore,
    SweepExecutor,
    SweepSpec,
    evaluate_job,
    point_to_record,
    rank,
    record_to_point,
    summarize,
)

SMALL = SweepSpec(capacities_mib=(1, 8), bandwidths=(4.0, 64.0))


class TestSweepSpec:
    def test_cross_product_size(self):
        assert len(SMALL) == 8
        assert len(list(SMALL.jobs())) == 8

    def test_order_is_deterministic(self):
        assert [j.key for j in SMALL.jobs()] == [j.key for j in SMALL.jobs()]

    def test_default_spec_covers_paper_points(self):
        names = {j.to_config().name for j in SweepSpec().jobs()}
        assert len(names) == 8
        assert "MemPool-3D-4MiB" in names

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(capacities_mib=())

    def test_dict_roundtrip(self):
        data = SMALL.to_dict()
        assert SweepSpec.from_dict(json.loads(json.dumps(data))) == SMALL

    def test_from_dict_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"voltages": [0.8]})


class TestJob:
    def test_rejects_bad_flow_and_kernel(self):
        with pytest.raises(ValueError):
            Job(capacity_mib=1, flow="2.5D")
        with pytest.raises(ValueError):
            Job(capacity_mib=1, flow="2D", kernel="fft")

    def test_key_is_stable_within_process(self):
        a = Job(capacity_mib=4, flow="3D", bandwidth=16)
        b = Job(capacity_mib=4, flow="3D", bandwidth=16.0)
        assert a.key == b.key  # int/float normalization

    def test_key_distinguishes_parameters(self):
        base = Job(capacity_mib=4, flow="3D")
        assert base.key != Job(capacity_mib=4, flow="2D").key
        assert base.key != Job(capacity_mib=4, flow="3D", bandwidth=8).key
        assert base.key != Job(capacity_mib=4, flow="3D", num_cores=128).key

    def test_key_is_stable_across_processes(self):
        job = Job(capacity_mib=2, flow="3D", bandwidth=32)
        script = (
            "from repro.sweep import Job; "
            "print(Job(capacity_mib=2, flow='3D', bandwidth=32).key)"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == job.key

    def test_paper_point_uses_paper_tiling(self):
        job = Job(capacity_mib=1, flow="2D")
        assert job.tiling().tile_size == 256

    def test_non_paper_point_fits_tiling(self):
        job = Job(capacity_mib=1, flow="2D", matrix_dim=4096)
        plan = job.tiling()
        assert plan.matrix_dim == 4096
        assert plan.fits(1 << 20)

    def test_params_roundtrip(self):
        job = Job(capacity_mib=8, flow="3D", bandwidth=4, num_cores=128)
        assert Job.from_params(job.params()) == job

    def test_scenario_surface_fields_distinguish_keys(self):
        base = Job(capacity_mib=4, flow="3D")
        assert base.key != Job(capacity_mib=4, flow="3D", tile_size=272).key
        assert base.key != Job(
            capacity_mib=4, flow="3D", target_frequency_mhz=800.0
        ).key
        assert base.key != Job(
            capacity_mib=4, flow="3D", arch={"core_kge": 80.0}
        ).key

    def test_scenario_canonicalization_copied_back(self):
        # An explicit tile equal to the derived one folds to None, and
        # all-default arch overrides fold to None: equal evaluations
        # must be equal jobs.
        assert Job(capacity_mib=1, flow="2D", tile_size=256) == Job(
            capacity_mib=1, flow="2D"
        )
        assert Job(capacity_mib=1, flow="2D", arch={}) == Job(
            capacity_mib=1, flow="2D"
        )

    def test_extended_job_roundtrips_through_records(self):
        job = Job(
            capacity_mib=2,
            flow="3D",
            tile_size=192,
            arch={"core_kge": 75.0},
            target_frequency_mhz=900.0,
        )
        point = evaluate_job(job)
        record = json.loads(json.dumps(point_to_record(job, point)))
        assert Job.from_params(record["job"]) == job
        assert record_to_point(record) == point


class TestResultCache:
    def test_put_get_and_persistence(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {"key": "k1", "status": "ok", "metrics": {}}
        cache.put(record)
        assert cache.get("k1") == record
        assert "k1" in cache and len(cache) == 1
        assert ResultCache(tmp_path).get("k1") == record

    def test_last_record_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put({"key": "k", "v": 1})
        cache.put({"key": "k", "v": 2})
        assert ResultCache(tmp_path).get("k")["v"] == 2

    def test_tolerates_torn_final_line(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put({"key": "k", "v": 1})
        with cache.path.open("a") as fh:
            fh.write('{"key": "torn", "v"')  # interrupted write
        assert ResultCache(tmp_path).get("k")["v"] == 1
        assert ResultCache(tmp_path).get("torn") is None

    def test_rejects_keyless_record(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).put({"status": "ok"})


def _fail_on_8mib(job):
    """Deterministically fail a subset of jobs (picklable, module-level)."""
    if job.capacity_mib == 8:
        raise RuntimeError("injected failure")
    return evaluate_job(job)


class TestSweepExecutor:
    def test_serial_run_matches_explorer(self, tmp_path):
        outcome = SweepExecutor(cache=ResultCache(tmp_path)).run(
            SweepSpec(bandwidths=(16.0,))
        )
        assert outcome.stats.evaluated == 8
        assert outcome.stats.failed == 0
        serial = {p.config.name: p for p in Explorer(bandwidth=16.0).explore()}
        for point in outcome.points():
            assert point == serial[point.config.name]

    def test_parallel_equals_serial(self, tmp_path):
        serial = SweepExecutor(workers=0).run(SMALL)
        parallel = SweepExecutor(workers=2).run(SMALL)
        assert serial.stats.evaluated == parallel.stats.evaluated == 8
        assert [r["key"] for r in serial.records] == [
            r["key"] for r in parallel.records
        ]
        assert serial.points() == parallel.points()

    def test_rerun_is_pure_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = SweepExecutor(cache=cache).run(SMALL)
        second = SweepExecutor(cache=cache).run(SMALL)
        assert first.stats.evaluated == 8
        assert second.stats.evaluated == 0
        assert second.stats.cached == 8
        assert second.points() == first.points()

    def test_cache_shared_between_worker_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache, workers=2).run(SMALL)
        resumed = SweepExecutor(cache=cache, workers=0).run(SMALL)
        assert resumed.stats.evaluated == 0

    def test_resume_after_partial_failure(self, tmp_path):
        cache = ResultCache(tmp_path)
        broken = SweepExecutor(cache=cache, evaluate=_fail_on_8mib).run(SMALL)
        assert broken.stats.failed == 4  # 8 MiB x 2 flows x 2 bandwidths
        assert broken.stats.evaluated == 8
        assert all("injected failure" in r["error"] for r in broken.failures)
        # Failures stayed out of the cache: the retry evaluates exactly them.
        healed = SweepExecutor(cache=cache).run(SMALL)
        assert healed.stats.cached == 4
        assert healed.stats.evaluated == 4
        assert healed.stats.failed == 0

    def test_parallel_failure_capture(self, tmp_path):
        outcome = SweepExecutor(workers=2, evaluate=_fail_on_8mib).run(SMALL)
        assert outcome.stats.failed == 4
        assert len(outcome.ok_records) == 4

    def test_store_logs_every_record(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        SweepExecutor(cache=cache, store=store).run(SMALL)
        SweepExecutor(cache=cache, store=store).run(SMALL)
        records = store.load()
        assert len(records) == 16  # both runs logged, cache hits included
        assert {r["source"] for r in records} == {"evaluated", "cache"}
        assert len(store.latest()) == 8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=-1)
        with pytest.raises(ValueError):
            SweepExecutor(chunksize=0)


def _const_cycles(scenario):
    """Module-level workload plugin (picklable by reference into workers)."""
    return 1.0e6 * scenario.capacity_mib


class TestPluginSweepAcrossProcesses:
    """Runtime-registered workloads must survive spawn-started workers."""

    def test_spawn_workers_see_parent_registered_workload(self):
        import multiprocessing

        from repro.api import WORKLOADS, register_workload

        register_workload("spawned_wl")(_const_cycles)
        try:
            jobs = [
                Job(capacity_mib=1, flow="3D", kernel="spawned_wl"),
                Job(capacity_mib=2, flow="3D", kernel="spawned_wl"),
            ]
            outcome = SweepExecutor(
                workers=2, mp_context=multiprocessing.get_context("spawn")
            ).run(jobs)
            assert outcome.stats.failed == 0
            assert [r["metrics"]["cycles"] for r in outcome.ok_records] == [
                1.0e6,
                2.0e6,
            ]
        finally:
            WORKLOADS.unregister("spawned_wl")

    def test_unpicklable_workload_fails_per_job_not_fatally(self):
        """A lambda workload cannot reach spawn workers: each job must
        become a failure record — never a traceback killing the sweep."""
        import multiprocessing

        from repro.api import WORKLOADS, register_workload

        register_workload("lambda_wl")(lambda scenario: 1.0)
        try:
            jobs = [Job(capacity_mib=1, flow="2D", kernel="lambda_wl")]
            outcome = SweepExecutor(
                workers=2, mp_context=multiprocessing.get_context("spawn")
            ).run(jobs)
            assert outcome.stats.failed == 1
            assert "unknown workload" in outcome.failures[0]["error"]
        finally:
            WORKLOADS.unregister("lambda_wl")


class TestRecords:
    def test_point_record_roundtrip(self):
        job = Job(capacity_mib=2, flow="3D", bandwidth=8)
        point = evaluate_job(job)
        rebuilt = record_to_point(
            json.loads(json.dumps(point_to_record(job, point)))
        )
        assert rebuilt == point

    def test_record_to_point_rejects_failures(self):
        with pytest.raises(ValueError):
            record_to_point({"status": "error", "job": {}})


class TestResultStore:
    def test_torn_last_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append({"key": "a", "status": "ok"})
        store.append({"key": "b", "status": "error"})
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "zz", "sea')  # a killed run's torn append
        assert [r["key"] for r in store.load()] == ["a", "b"]
        assert sorted(store.latest()) == ["a", "b"]

    def test_append_after_a_torn_line_starts_a_new_line(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append({"key": "a", "status": "ok"})
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "zz", "sea')  # a killed run's torn append
        store.append({"key": "b", "status": "ok"})
        store.append({"key": "c", "status": "ok"})
        assert [r["key"] for r in ResultStore(store.path).load()] == [
            "a", "b", "c"
        ]


class TestReport:
    @pytest.fixture(scope="class")
    def records(self):
        return SweepExecutor().run(SMALL).records

    def test_rank_orders_by_objective(self, records):
        ranked = rank(records, "edp")
        values = [p.edp for _, p in ranked]
        assert values == sorted(values)

    def test_rank_rejects_unknown_objective(self, records):
        with pytest.raises(ValueError):
            rank(records, "beauty")

    def test_summary_names_winners_and_failures(self, records):
        text = summarize(records)
        assert "best performance" in text
        assert "Pareto front" in text
        assert "failures" not in text
        failed = records + [
            {"status": "error", "job": Job(1, "2D").params(), "error": "boom"}
        ]
        assert "failures (1)" in summarize(failed)

"""Stage-factored memoization: the third cache tier.

``Pipeline.run`` splits into two independent stages — the physical
``implement()`` keyed by flow/capacity/arch/frequency, and the workload
``cycles()`` keyed by workload/tiling/arch/bandwidth — memoized in
:class:`repro.engine.cache.StageCache`.  These tests pin the stage-key
contracts, the exactly-A-physical-implementations property of a
K-kernels x A-archs sweep, warm-restart behaviour, and the maintenance
CLI surface.
"""

import json

import pytest

from repro.api import Pipeline, Scenario
from repro.engine import (
    Engine,
    StageCache,
    cache_clear,
    cache_gc,
    cache_stats,
)
from repro.sweep import ResultCache, SweepSpec


class TestStageKeys:
    def test_objective_never_affects_stage_keys(self):
        a = Scenario(capacity_mib=4, flow="2D", objective="edp")
        b = Scenario(capacity_mib=4, flow="2D", objective="performance")
        assert a.physical_key == b.physical_key
        assert a.cycles_key == b.cycles_key

    def test_workload_fields_stay_out_of_physical_key(self):
        a = Scenario(capacity_mib=4, flow="2D", workload="matmul")
        b = Scenario(capacity_mib=4, flow="2D", workload="dotp",
                     matrix_dim=64, num_cores=16, bandwidth=32.0)
        assert a.physical_key == b.physical_key
        assert a.cycles_key != b.cycles_key

    def test_flow_and_frequency_stay_out_of_cycles_key(self):
        a = Scenario(capacity_mib=4, flow="2D", target_frequency_mhz=1000.0)
        b = Scenario(capacity_mib=4, flow="3D", target_frequency_mhz=700.0)
        assert a.cycles_key == b.cycles_key
        assert a.physical_key != b.physical_key

    def test_arch_and_capacity_are_in_both_keys(self):
        a = Scenario(capacity_mib=4, flow="2D")
        b = Scenario(capacity_mib=8, flow="2D")
        c = Scenario(capacity_mib=4, flow="2D",
                     arch={"cores_per_tile": 8})
        assert len({a.physical_key, b.physical_key, c.physical_key}) == 3
        assert len({a.cycles_key, b.cycles_key, c.cycles_key}) == 3


class TestPipelineStageCache:
    def test_physical_shared_across_workloads(self):
        cache = StageCache()
        pipeline = Pipeline(stage_cache=cache)
        pipeline.run(Scenario(capacity_mib=2, flow="3D", workload="matmul"))
        pipeline.run(Scenario(capacity_mib=2, flow="3D", workload="dotp",
                              matrix_dim=64, num_cores=16))
        assert cache.physical_evals == 1
        assert cache.physical_hits == 1
        assert cache.cycles_evals == 2  # different workloads

    def test_cycles_shared_across_flows(self):
        cache = StageCache()
        pipeline = Pipeline(stage_cache=cache)
        r2d = pipeline.run(Scenario(capacity_mib=2, flow="2D"))
        r3d = pipeline.run(Scenario(capacity_mib=2, flow="3D"))
        assert cache.cycles_evals == 1
        assert cache.cycles_hits == 1
        assert cache.physical_evals == 2  # flows implement separately
        assert r2d.cycles == r3d.cycles

    def test_cached_results_are_bit_identical(self):
        scenario = Scenario(capacity_mib=4, flow="3D", bandwidth=32.0)
        plain = Pipeline().run(scenario)
        cache = StageCache()
        cached_pipeline = Pipeline(stage_cache=cache)
        first = cached_pipeline.run(scenario)
        second = cached_pipeline.run(scenario)
        for result in (first, second):
            assert result.to_dict() == plain.to_dict()
        assert cache.physical_evals == 1 and cache.cycles_evals == 1


@pytest.fixture
def spec():
    # K=3 kernels x (A=2 capacities x 2 flows)
    return SweepSpec(
        capacities_mib=(1, 2),
        flows=("2D", "3D"),
        bandwidths=(16.0,),
        matrix_dims=(64,),
        core_counts=(16,),
        kernels=("matmul", "dotp", "axpy"),
    )


class TestEngineStageCache:
    def test_physical_runs_exactly_once_per_arch(self, tmp_path, spec):
        engine = Engine(cache=ResultCache(tmp_path))
        outcome = engine.run(spec.jobs())
        assert outcome.stats.failed == 0
        counters = engine.stage_counters()
        # 2 capacities x 2 flows = 4 physical implementations, not 4 x 3.
        assert counters["physical_evals"] == 4
        assert counters["physical_hits"] == 8
        # cycles: 3 kernels x 2 capacities, shared across the 2 flows.
        assert counters["cycles_evals"] == 6
        assert counters["cycles_hits"] == 6

    def test_warm_resweep_evaluates_no_stages(self, tmp_path, spec):
        Engine(cache=ResultCache(tmp_path)).run(spec.jobs())
        before = cache_stats(tmp_path)
        warm = Engine(cache=ResultCache(tmp_path)).run(spec.jobs())
        assert warm.stats.evaluated == 0
        after = cache_stats(tmp_path)
        assert after["physical_evals"] == before["physical_evals"]
        assert after["cycles_evals"] == before["cycles_evals"]

    def test_fresh_process_reloads_stage_memos_from_disk(self, tmp_path, spec):
        Engine(cache=ResultCache(tmp_path)).run(spec.jobs())
        # A fresh StageCache (what a new worker process builds) serves
        # every stage from the stages.jsonl memo without re-evaluating.
        fresh = StageCache(tmp_path)
        assert len(fresh) == 4 + 6
        for job in spec.jobs():
            scenario = job.scenario()
            assert fresh.get_physical(scenario.physical_key) is not None
            assert fresh.get_cycles(scenario.cycles_key) is not None
        assert fresh.physical_evals == 0 and fresh.cycles_evals == 0

    def test_stage_cache_disabled_without_disk_cache(self):
        engine = Engine()
        assert engine.stage_counters() is None

    def test_stage_cache_opt_out(self, tmp_path):
        engine = Engine(cache=ResultCache(tmp_path), stage_cache=False)
        assert engine.stage_counters() is None


STAGE_COUNTERS = ("physical_hits", "physical_evals", "cycles_hits",
                  "cycles_evals")


def _sidecar_counters(root) -> dict:
    stats = cache_stats(root)
    return {name: stats[name] for name in
            ("memory_hits", "disk_hits", "misses", "stores") + STAGE_COUNTERS}


class TestSidecarFlush:
    def test_one_sidecar_merge_per_batch(self, tmp_path, spec, monkeypatch):
        from repro.engine import cache as cache_module

        merges = []
        real_merge = cache_module._merge_sidecar

        def counting_merge(path, delta):
            merges.append(dict(delta))
            real_merge(path, delta)

        monkeypatch.setattr(cache_module, "_merge_sidecar", counting_merge)
        engine = Engine(cache=ResultCache(tmp_path))
        engine.run(spec.jobs())
        assert len(merges) == 1  # records and stage memo in one rewrite
        sidecar = _sidecar_counters(tmp_path)
        counters = engine.stage_counters()
        assert {name: sidecar[name] for name in STAGE_COUNTERS} == counters
        assert sidecar["misses"] == sidecar["stores"] == 12

    def test_stage_delta_waits_for_the_flush_interval(self, tmp_path, spec):
        from repro.engine import TieredCache

        cache = TieredCache(disk=ResultCache(tmp_path),
                            stats_flush_interval_s=3600.0)
        engine = Engine(cache=cache)
        jobs = list(spec.jobs())
        engine.run(jobs[:6])  # the first flush is due at once
        first = _sidecar_counters(tmp_path)
        assert first["physical_evals"] > 0
        engine.run(jobs[6:])  # inside the interval: nothing merged
        assert _sidecar_counters(tmp_path) == first
        cache.flush_stats(force=True)  # drains every tier
        sidecar = _sidecar_counters(tmp_path)
        counters = engine.stage_counters()
        assert {name: sidecar[name] for name in STAGE_COUNTERS} == counters
        assert sidecar["misses"] == sidecar["stores"] == 12


class TestMaintenance:
    def test_stats_clear_and_gc_cover_the_stage_file(self, tmp_path, spec):
        Engine(cache=ResultCache(tmp_path)).run(spec.jobs())
        stats = cache_stats(tmp_path)
        assert stats["stage_entries"] == 10
        assert stats["physical_evals"] == 4
        assert stats["cycles_evals"] == 6

        # gc prunes stage memos from other model versions
        stage_file = tmp_path / StageCache.FILENAME
        lines = stage_file.read_text().splitlines()
        stale = json.loads(lines[0])
        stale["key"] = "0" * 64
        stale["model_version"] = "1.obsolete"
        with stage_file.open("a") as fh:
            fh.write(json.dumps(stale) + "\n")
        assert len(StageCache(tmp_path)) == 11
        cache_gc(tmp_path)
        assert len(StageCache(tmp_path)) == 10

        removed = cache_clear(tmp_path)
        assert removed > 0
        assert not stage_file.exists()
        assert cache_stats(tmp_path)["stage_entries"] == 0

    def test_cli_cache_stats_prints_stage_counters(self, tmp_path, capsys):
        from repro.__main__ import main

        Engine(cache=ResultCache(tmp_path)).run(
            SweepSpec(capacities_mib=(1,), flows=("2D",)).jobs()
        )
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stages:" in out
        assert "physical: 0 hits, 1 evaluations" in out
        assert "cycles:   0 hits, 1 evaluations" in out

    def test_cli_run_profile_prints_stage_times(self, capsys):
        from repro.__main__ import main

        code = main(["run", "--capacity", "1", "--flow", "2D", "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile:" in out
        assert "implement" in out and "cycles" in out

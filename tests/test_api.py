"""Tests for repro.api — Scenario, registries, Pipeline, cache versioning."""

import hashlib
import json

import pytest

from repro.api import (
    CODE_MODEL_VERSION,
    FLOWS,
    OBJECTIVES,
    Pipeline,
    Registry,
    Scenario,
    WORKLOADS,
    paper_scenarios,
    register_objective,
    register_workload,
    scenario_schema,
)
from repro.core.config import paper_configurations
from repro.core.explorer import DesignPoint, Explorer, evaluate_point
from repro.core.metrics import KernelMetrics
from repro.kernels.phases import DEFAULT_PHASE_PARAMS, matmul_cycles
from repro.kernels.tiling import paper_tiling
from repro.physical.flow3d import implement_group
from repro.simulator.memsys import OffChipMemory


class TestScenario:
    def test_defaults_and_name(self):
        s = Scenario(capacity_mib=4, flow="3D")
        assert s.name == "MemPool-3D-4MiB"
        assert s.workload == "matmul"
        assert s.objective == "edp"

    def test_normalization(self):
        a = Scenario(capacity_mib=4, flow="3d", bandwidth=16)
        b = Scenario(capacity_mib=4.0, flow="3D", bandwidth=16.0)
        assert a == b
        assert a.flow == "3D"

    def test_dict_roundtrip(self):
        s = Scenario(capacity_mib=2, flow="3D", bandwidth=32.0,
                     objective="performance")
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_roundtrip(self):
        s = Scenario(capacity_mib=8, flow="2D", matrix_dim=4096,
                     num_cores=128, workload="matmul")
        assert Scenario.from_json(s.to_json()) == s

    def test_roundtrip_with_arch_and_tile_overrides(self):
        s = Scenario(capacity_mib=4, flow="3D", matrix_dim=4096,
                     tile_size=256, arch={"cores_per_tile": 8})
        assert s.arch == {"cores_per_tile": 8}
        assert Scenario.from_dict(json.loads(s.to_json())) == s

    def test_default_arch_canonicalizes_to_none(self):
        s = Scenario(capacity_mib=4, flow="3D", arch={"cores_per_tile": 4})
        assert s.arch is None

    def test_paper_tile_canonicalizes_to_none(self):
        s = Scenario(capacity_mib=1, flow="2D", tile_size=256)
        assert s.tile_size is None
        assert s.tiling().tile_size == 256

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"capacity_mib": 1, "voltage": 0.8})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flow": "2.5D"},
            {"workload": "fft"},
            {"objective": "beauty"},
            {"capacity_mib": 0},
            {"bandwidth": -1.0},
            {"matrix_dim": 0},
            {"num_cores": 0},
            {"cpi_mac": 0.0},
            {"tile_size": 7},  # does not divide the paper matrix
            {"arch": {"warp_size": 32}},  # unknown ArchParams field
            {"arch": {"banks_per_tile": 48}},  # capacity won't split evenly
        ],
    )
    def test_strict_validation(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**{"capacity_mib": 1, **kwargs})

    def test_tiling_matches_paper_and_fit(self):
        assert Scenario(capacity_mib=2, flow="2D").tiling().tile_size == 384
        fitted = Scenario(capacity_mib=1, flow="2D", matrix_dim=4096).tiling()
        assert fitted.matrix_dim == 4096
        assert fitted.fits(1 << 20)

    def test_paper_scenarios_cover_all_eight(self):
        scenarios = paper_scenarios()
        assert len(scenarios) == 8
        assert len({s.name for s in scenarios}) == 8

    def test_cache_key_ignores_objective(self):
        a = Scenario(capacity_mib=4, flow="3D", objective="edp")
        b = Scenario(capacity_mib=4, flow="3D", objective="performance")
        assert a.cache_key == b.cache_key

    def test_cache_key_distinguishes_parameters(self):
        base = Scenario(capacity_mib=4, flow="3D")
        assert base.cache_key != Scenario(capacity_mib=4, flow="2D").cache_key
        assert base.cache_key != Scenario(capacity_mib=4, flow="3D",
                                          bandwidth=8).cache_key
        assert base.cache_key != Scenario(capacity_mib=4, flow="3D",
                                          workload="dotp",
                                          matrix_dim=64).cache_key


class TestRegistry:
    def test_register_get_and_list(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.register("b", 2)
        assert reg.get("a") == 1
        assert reg.names() == ("a", "b")
        assert "a" in reg and len(reg) == 2

    def test_duplicate_name_rejected(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)

    def test_reregistering_same_object_is_noop(self):
        reg = Registry("thing")
        obj = object()
        reg.register("a", obj)
        reg.register("a", obj)  # module re-import must stay safe
        assert len(reg) == 1

    def test_unknown_name_lists_available(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="unknown thing 'z'"):
            reg.get("z")

    def test_unregister(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(ValueError):
            reg.unregister("a")

    def test_builtin_registries_are_seeded(self):
        assert {"2D", "3D"} <= set(FLOWS)
        assert {"matmul", "dotp", "axpy", "conv2d"} <= set(WORKLOADS)
        assert {"performance", "edp", "footprint"} <= set(OBJECTIVES)

    def test_duplicate_builtin_workload_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("matmul")(lambda s: 1.0)


def _legacy_evaluate(config, bandwidth=16.0):
    """The seed repository's evaluate_point, inlined as the reference."""
    plan = paper_tiling(config.capacity_mib)
    memory = OffChipMemory(bandwidth_bytes_per_cycle=bandwidth)
    cycles = matmul_cycles(plan, memory, DEFAULT_PHASE_PARAMS).total
    result = implement_group(config).to_group_result()
    kernel = KernelMetrics(
        name=config.name,
        cycles=cycles,
        frequency_mhz=result.frequency_mhz,
        power_mw=result.power_mw,
    )
    return DesignPoint(
        config=config,
        footprint_um2=result.footprint_um2,
        combined_area_um2=result.combined_area_um2,
        frequency_mhz=result.frequency_mhz,
        power_mw=result.power_mw,
        kernel=kernel,
    )


class TestPipeline:
    def test_matches_legacy_evaluate_point_on_all_paper_configs(self):
        pipeline = Pipeline()
        for config in paper_configurations():
            legacy = _legacy_evaluate(config)
            scenario = Scenario(
                capacity_mib=config.capacity_mib,
                flow=config.flow.value,
                bandwidth=16.0,
            )
            assert pipeline.run(scenario).to_design_point() == legacy
            assert evaluate_point(config, bandwidth=16.0) == legacy

    def test_run_bundles_physical_kernel_and_derived(self):
        result = Pipeline().run(Scenario(capacity_mib=1, flow="3D"))
        assert result.frequency_mhz == result.physical.frequency_mhz
        assert result.cycles == result.kernel.cycles
        assert result.edp == pytest.approx(
            result.energy_j * result.runtime_s
        )
        data = result.to_dict()
        assert data["scenario"]["capacity_mib"] == 1
        assert data["derived"]["objective"] == "edp"

    def test_rank_orders_by_objective(self):
        pipeline = Pipeline()
        results = pipeline.run_many(paper_scenarios())
        ranked = pipeline.rank(results, "performance")
        perfs = [r.performance for r in ranked]
        assert perfs == sorted(perfs, reverse=True)
        assert pipeline.rank(results, "edp")[0].edp == min(r.edp for r in results)

    def test_rank_rejects_unknown_objective(self):
        results = Pipeline().run_many([Scenario(capacity_mib=1, flow="2D")])
        with pytest.raises(ValueError):
            Pipeline().rank(results, "beauty")

    def test_simulator_backed_workload_end_to_end(self):
        scenario = Scenario(capacity_mib=1, flow="2D", matrix_dim=64,
                            num_cores=4, workload="dotp")
        result = Pipeline().run(scenario)
        assert result.cycles > 0
        assert result.name == "MemPool-2D-1MiB"

    def test_simulator_workload_rejects_huge_dims(self):
        scenario = Scenario(capacity_mib=1, flow="2D", workload="dotp")
        with pytest.raises(ValueError, match="matrix_dim"):
            Pipeline().cycles(scenario)


class TestPluginEndToEnd:
    def test_registered_workload_runs_through_api_and_sweep_cli(self, capsys):
        from repro.__main__ import main

        @register_workload("const_kernel")
        def const_kernel(scenario):
            return 1e6 * scenario.capacity_mib

        try:
            # Through the API...
            scenario = Scenario(capacity_mib=2, flow="3D",
                                workload="const_kernel")
            result = Pipeline().run(scenario)
            assert result.cycles == 2e6
            # ...and end to end through the sweep CLI, no core edits.
            code = main(["sweep", "--capacities", "1,2", "--flows", "3D",
                         "--bandwidths", "16", "--kernels", "const_kernel",
                         "--no-cache"])
            out = capsys.readouterr().out
            assert code == 0
            assert "2 jobs: 0 cached, 2 evaluated, 0 failed" in out
        finally:
            WORKLOADS.unregister("const_kernel")

    def test_registered_lowercase_flow_runs_through_pipeline(self):
        from repro.api import register_flow
        from repro.core.config import Flow
        from repro.physical.flow2d import implement_group_2d

        @register_flow("interposer")
        def interposer_flow(scenario):
            return implement_group_2d(scenario.to_config(flow=Flow.FLOW_2D))

        try:
            scenario = Scenario(capacity_mib=1, flow="interposer")
            assert scenario.flow == "interposer"  # case preserved
            result = Pipeline().run(scenario)
            assert result.name == "MemPool-interposer-1MiB"
            assert result.frequency_mhz > 0
        finally:
            FLOWS.unregister("interposer")

    def test_builtin_flow_names_fold_to_uppercase(self):
        assert Scenario(capacity_mib=1, flow="3d").flow == "3D"

    def test_registered_objective_ranks_in_explorer_and_pipeline(self):
        @register_objective("cycle_count", higher_is_better=False)
        def cycle_count(point):
            return point.kernel.cycles

        try:
            points = Explorer(capacities_mib=(1, 8)).explore()
            ranked = Explorer(capacities_mib=(1, 8)).rank("cycle_count", points)
            cycles = [p.kernel.cycles for p in ranked]
            assert cycles == sorted(cycles)

            results = Pipeline().run_many(paper_scenarios()[:4])
            best = Pipeline().rank(results, "cycle_count")[0]
            assert best.cycles == min(r.cycles for r in results)
        finally:
            OBJECTIVES.unregister("cycle_count")


class TestCacheVersioning:
    def test_version_is_derived_from_scenario_schema(self):
        blob = json.dumps(scenario_schema(), sort_keys=True,
                          separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
        assert CODE_MODEL_VERSION == f"2.{digest}"

    def test_pre_api_cache_entries_are_never_reused(self, tmp_path):
        """A record stored under the PR-1 job key encoding must be a miss."""
        from repro.sweep import Job, ResultCache, SweepExecutor

        job = Job(capacity_mib=1, flow="3D", bandwidth=16.0)
        # The pre-API encoding: sha256 over model_version "1" + raw params.
        legacy_payload = {"model_version": "1", **job.params()}
        legacy_blob = json.dumps(legacy_payload, sort_keys=True,
                                 separators=(",", ":"))
        legacy_key = hashlib.sha256(legacy_blob.encode("utf-8")).hexdigest()
        assert job.key != legacy_key

        cache = ResultCache(tmp_path)
        cache.put({"key": legacy_key, "status": "ok",
                   "job": job.params(), "metrics": {"stale": True}})
        outcome = SweepExecutor(cache=cache).run([job])
        assert outcome.stats.evaluated == 1  # stale entry was not served
        assert outcome.records[0]["metrics"].get("stale") is None


#: Scenarios whose content keys are pinned below, by name.
_PINNED_SCENARIOS = {
    "default": dict(capacity_mib=1),
    "3d-overrides": dict(capacity_mib=4, flow="3D", bandwidth=16,
                         tile_size=272, arch={"core_kge": 80.0},
                         target_frequency_mhz=900.0),
    "dotp": dict(capacity_mib=1, workload="dotp", matrix_dim=1024,
                 num_cores=32),
    "performance": dict(capacity_mib=1, objective="performance"),
}

#: (cache_key, physical_key, cycles_key) of each pinned scenario under
#: CODE_MODEL_VERSION 2.31d79d701455.  Changing any of these bytes turns
#: every existing cache directory cold, so it must be deliberate.
_PINNED_KEYS = {
    "default": (
        "3042047d9009761cc29d4167ae11202d59a9ac0e1f82f12c866e38f773c59508",
        "21419eed8793881119b2650148592c2e25d36832f70643aea02a13460ec9469b",
        "815c6f60bcb4472c573a03f759e2d9d2ec0417542158f9c8056f20416aa87b99",
    ),
    "3d-overrides": (
        "e49e697475efddddeea5168ead25cf611e55fa2295d45633add660c0a58bcecc",
        "96a95cac69ea23797f03885fe796b695d3339aef5be0526676abe4807f8ae2d2",
        "e8677c456331c667e9e0de32687804bc2c24035d77f193edb1d012a5ba4092f2",
    ),
    "dotp": (
        "01b4b221a445dedd88e2cfe3b33ed26f5caf8428cd0db7b6bf114b061bc49881",
        "21419eed8793881119b2650148592c2e25d36832f70643aea02a13460ec9469b",
        "ed5a99abd099f4022515d20c423963383601c083a7c90484f5bd2d2d952881a5",
    ),
    # The objective never reaches a key: the default scenario's bytes.
    "performance": (
        "3042047d9009761cc29d4167ae11202d59a9ac0e1f82f12c866e38f773c59508",
        "21419eed8793881119b2650148592c2e25d36832f70643aea02a13460ec9469b",
        "815c6f60bcb4472c573a03f759e2d9d2ec0417542158f9c8056f20416aa87b99",
    ),
}


class TestPinnedKeyBytes:
    """Existing caches keep serving only while the key bytes hold."""

    def test_model_version(self):
        assert CODE_MODEL_VERSION == "2.31d79d701455"

    @pytest.mark.parametrize("name", sorted(_PINNED_SCENARIOS))
    def test_keys(self, name):
        scenario = Scenario(**_PINNED_SCENARIOS[name])
        keys = (scenario.cache_key, scenario.physical_key, scenario.cycles_key)
        assert keys == _PINNED_KEYS[name]

    def test_record_job_params(self):
        from repro.sweep import Job, point_to_record

        scenario = Scenario(**_PINNED_SCENARIOS["3d-overrides"])
        point = Pipeline().run(scenario).to_design_point()
        record = point_to_record(Job.from_scenario(scenario), point)
        assert record["key"] == _PINNED_KEYS["3d-overrides"][0]
        expected = {
            "capacity_mib": 4,
            "flow": "3D",
            "bandwidth": 16.0,
            "matrix_dim": 326400,
            "num_cores": 256,
            "cpi_mac": 2.9,
            "phase_overhead_cycles": 10000.0,
            "kernel": "matmul",
            "tile_size": 272,
            "word_bytes": 4,
            "target_frequency_mhz": 900.0,
            "arch": {"core_kge": 80.0},
        }
        assert record["job"] == expected
        assert list(record["job"]) == list(expected)  # key order too

"""Tests for repro.api — Scenario, registries, Pipeline, cache versioning."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "bandwidth", "cpi_mac", "phase_overhead_cycles",
        "target_frequency_mhz",
    ])
    def test_non_finite_floats_are_rejected_by_name(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be finite, got {value}$"):
            Scenario(capacity_mib=1, **{field: value})

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

    def test_keys_inside_analytic_engine(self):
        scenario = Scenario(**_PINNED_SCENARIOS["dotp"])
        keys = (scenario.cache_key_for("analytic"), scenario.physical_key,
                scenario.cycles_key_for("analytic"))
        assert keys == (
            "e09955d3b37bafd35d55232a41d6e17adde2b9082c728c4d7df96999103e47db",
            # The physical key carries no evaluation-tier marker.
            "21419eed8793881119b2650148592c2e25d36832f70643aea02a13460ec9469b",
            "df4aab7bc8e0f09f693cf1d020339bbad9569fefad23874d5a7092e0dd6209dd",
        )

    def test_keys_of_an_escaped_flow_name(self):
        from repro.api import register_flow

        name = 'interposer "\u00e9"'  # JSON: "interposer \"\u00e9\""

        @register_flow(name)
        def interposer_flow(scenario):
            raise AssertionError("keys never run the flow")

        try:
            scenario = Scenario(capacity_mib=2, flow=name, bandwidth=1e-05,
                                target_frequency_mhz=0.30000000000000004)
            keys = (scenario.cache_key, scenario.physical_key,
                    scenario.cycles_key)
        finally:
            FLOWS.unregister(name)
        assert keys == (
            "46fabd932500a4ace6597346d6e1626a3939f362ad4911edb91363ff660dd8fb",
            "05bd15d4d4ccee3512dbd06dbb90649801a2276c5501383d8efc74332f743748",
            "eab47b0e45fb2c847dbc1b0f9e21e3f9fcb031a330391ab3ccfe79697581cb0f",
        )

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


#: Scenarios whose record lines are pinned below, by name: the paper's
#: eight configurations at two targets, an arch variant, a simulated
#: point, and a failure (dotp at twice the simulator's element limit).
_PINNED_RECORD_SCENARIOS = {
    **{
        f"{config.name}@{target}": dict(
            capacity_mib=config.capacity_mib, flow=config.flow.value,
            target_frequency_mhz=target,
        )
        for target in (523.5, 1000.0)
        for config in paper_configurations()
    },
    "banks_per_tile=8": dict(capacity_mib=4, flow="3D",
                             arch={"banks_per_tile": 8}),
    "dotp-16c-256": dict(capacity_mib=1, flow="2D", workload="dotp",
                         matrix_dim=256, num_cores=16),
    "dotp-past-limit": dict(capacity_mib=1, flow="2D", workload="dotp",
                            matrix_dim=131072, num_cores=16),
}

#: sha256 of each pinned scenario's record line under CODE_MODEL_VERSION
#: 2.31d79d701455.  Caches, stores and service clients hold these bytes.
_PINNED_RECORDS = {
    "MemPool-2D-1MiB@523.5": "fef0f2e5476c16931c030ba41cef10d5b2dc41f80a8edb926f5f1bbff4dc1f8b",
    "MemPool-3D-1MiB@523.5": "6ea6501a8ab1a694d37cd89dd45e5cf431a9b52fc47d380c69c837dd3f771952",
    "MemPool-2D-2MiB@523.5": "0887feec50ea17b7525393b048f91a29d26f519f3294689d3d470f407ded6946",
    "MemPool-3D-2MiB@523.5": "33eb00bca253be2bf84d74155656ed265b488d11b12d72d75a06817eef7713cd",
    "MemPool-2D-4MiB@523.5": "6581d0ad45143140c296d79cfc9291c7cd63e714db714aba003ac1f2fd2dcf3c",
    "MemPool-3D-4MiB@523.5": "b5d569ff8bcfa0f0c514063bf9a6d4de818ab4fe08c4ebb0b59a1dfb4407bf00",
    "MemPool-2D-8MiB@523.5": "e8dbc154f44696ac713623888ffdce545b2fce0552661d01171788e15d33714f",
    "MemPool-3D-8MiB@523.5": "2ab95e338e742366c93f3bdbfffafd9bb95517964b2c15d17103a7511bebca6e",
    "MemPool-2D-1MiB@1000.0": "137fcc2c6ed5d3d2ee7fe377d54f1a67939e85a032a26136a83309107fdf0829",
    "MemPool-3D-1MiB@1000.0": "db360738d5d90c2916bbebe9957f6345e5c4bd43a1a3bb3cb3751a212f9c8d8f",
    "MemPool-2D-2MiB@1000.0": "298b0f232658bb5503e3e8de3e61c4541666ecd189dc63d10f773c8c7ed2f5c3",
    "MemPool-3D-2MiB@1000.0": "9c65bb69874ea8f9525a27774dce85382349b485a3bd4de8689372273b99449b",
    "MemPool-2D-4MiB@1000.0": "af31bd23dabd38e98607020281b0c08000fa4c33ee1d92ecaf8ce02c59eea826",
    "MemPool-3D-4MiB@1000.0": "7813da923fbc7e45141efa2ff4e4984b48ef69f74b58086898fa670014270003",
    "MemPool-2D-8MiB@1000.0": "14a560869ff8fbabe5d7945274e38e8516d108d49eefe06998845c7b531ab2d7",
    "MemPool-3D-8MiB@1000.0": "5023db22b08df251cdb138dfbd98713b91368e6ea326221c2fe8d99a8d7d3811",
    "banks_per_tile=8": "355ed93cc1bb38cd3224c29e3bf2ca79427ef195f92a98a47597461995c380ee",
    "dotp-16c-256": "b32257cc4c373c3a3903f1417d7ee7a279f70890b4f5e9c2c24f6e809e62aee7",
    "dotp-past-limit": "cc0eaaf2f746fd10194d803b2790b2d588f6996b323a8e72ab54344b45da955a",
}


def _engine_record_line(scenario, stage_root=None):
    """The journal line the engine writes for ``scenario``."""
    from functools import partial

    from repro.engine import evaluate_job
    from repro.engine.backends import run_one
    from repro.sweep import Job
    from repro.sweep.cache import encode_line

    evaluate = partial(evaluate_job, stage_root=stage_root)
    return encode_line(run_one(evaluate, Job.from_scenario(scenario)))


class TestPinnedRecordBytes:
    """Existing caches and stores keep their meaning only while the
    record bytes hold: each line is pinned by its sha256."""

    @pytest.mark.parametrize("name", sorted(_PINNED_RECORD_SCENARIOS))
    def test_record_line(self, name):
        line = _engine_record_line(Scenario(**_PINNED_RECORD_SCENARIOS[name]))
        status = json.loads(line)["status"]
        assert status == ("error" if name == "dotp-past-limit" else "ok")
        assert hashlib.sha256(line).hexdigest() == _PINNED_RECORDS[name]

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 4, 8]),
        flow=st.sampled_from(["2D", "3D"]),
        bandwidth=st.floats(min_value=1e-3, max_value=1e6),
        target=st.floats(min_value=1.0, max_value=5e3),
        arch=st.one_of(
            st.none(),
            st.just({"banks_per_tile": 8}),
            st.just({"cores_per_tile": 8}),
            st.builds(lambda kge: {"core_kge": kge},
                      st.floats(min_value=1.0, max_value=1e3)),
        ),
    )
    def test_engine_line_equals_design_point_line(
        self, capacity, flow, bandwidth, target, arch
    ):
        import tempfile

        from repro.sweep import Job, point_to_record

        scenario = Scenario(capacity_mib=capacity, flow=flow,
                            bandwidth=bandwidth, target_frequency_mhz=target,
                            arch=arch)
        # The record as a DesignPoint serializes it, with a fresh encoder.
        record = point_to_record(Job.from_scenario(scenario),
                                 Pipeline().run(scenario).to_design_point())
        expected = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        assert _engine_record_line(scenario) == expected
        with tempfile.TemporaryDirectory() as root:
            cold = _engine_record_line(scenario, stage_root=root)
            warm = _engine_record_line(scenario, stage_root=root)
        assert cold == warm == expected


@st.composite
def _public_scenarios(draw):
    """A valid scenario over the public axes, as constructor kwargs."""
    matrix_dim = draw(st.sampled_from([256, 1024, 4096, 326400]))
    return dict(
        capacity_mib=draw(st.sampled_from([1, 2, 4, 8])),
        flow=draw(st.sampled_from(["2D", "3D", "2d", "3d"])),
        bandwidth=draw(st.one_of(
            st.sampled_from([1e-07, 1e+16, 2.5e-05, 16.0]),
            st.floats(min_value=1e-12, max_value=1e18),
        )),
        matrix_dim=matrix_dim,
        tile_size=draw(st.sampled_from([None, 8, 16, 64, 128, 256])),
        word_bytes=draw(st.sampled_from([4, 8])),
        num_cores=draw(st.integers(min_value=1, max_value=1024)),
        cpi_mac=draw(st.floats(min_value=0.01, max_value=100.0)),
        phase_overhead_cycles=draw(st.floats(min_value=0.0, max_value=1e7)),
        workload=draw(st.sampled_from(
            ["matmul", "dotp", "axpy", "conv2d", "matvec", "stencil5"]
        )),
        objective=draw(st.sampled_from(["edp", "performance"])),
        arch=draw(st.one_of(
            st.none(),
            st.builds(lambda kge: {"core_kge": kge},
                      st.floats(min_value=1.0, max_value=1e6)),
            st.just({"cores_per_tile": 8}),
        )),
        target_frequency_mhz=draw(st.floats(min_value=1.0, max_value=5e3)),
    )


def _json_dumps_keys(scenario, engine):
    """The three keys as sha256 of ``json.dumps`` of each dict view."""
    def digest(payload):
        blob = json.dumps({"model_version": CODE_MODEL_VERSION, **payload},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    return (
        digest({"scenario": scenario.cache_dict(engine)}),
        digest({"stage": "physical", "params": scenario.physical_dict()}),
        digest({"stage": "cycles", "params": scenario.cycles_dict(engine)}),
    )


class TestKeyTemplates:
    """Each key template writes exactly ``json.dumps`` of its view."""

    @pytest.mark.parametrize("tier", ["default", "analytic"])
    @settings(max_examples=60, deadline=None)
    @given(kwargs=_public_scenarios())
    def test_keys_equal_json_dumps_of_views(self, tier, kwargs):
        engine = "analytic" if tier == "analytic" else "fast"
        scenario = Scenario(**kwargs)
        keys = (scenario.cache_key_for(engine), scenario.physical_key,
                scenario.cycles_key_for(engine))
        assert keys == _json_dumps_keys(scenario, engine)

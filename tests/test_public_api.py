"""Tests for the public package API (subpackage exports)."""

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize(
    "module",
    ["repro.core", "repro.arch", "repro.interconnect", "repro.simulator",
     "repro.kernels", "repro.physical", "repro.sweep", "repro.api",
     "repro.engine", "repro.search", "repro.service", "repro.client",
     "repro.analysis"],
)
def test_subpackage_all_resolves(module):
    import importlib

    mod = importlib.import_module(module)
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(mod, name, None) is not None, f"{module}.{name}"


class TestEndToEndThroughPublicApi:
    def test_implement_and_measure(self):
        from repro.core import config_by_name, normalize
        from repro.physical import implement_group

        base = implement_group(config_by_name("MemPool-2D-1MiB")).to_group_result()
        other = implement_group(config_by_name("MemPool-3D-1MiB")).to_group_result()
        n = normalize(other, base)
        assert n.footprint < 0.75
        assert n.frequency > 1.0

    def test_simulate_through_public_api(self):
        from repro.core import MemPoolConfig, Flow
        from repro.kernels import run_matmul

        run = run_matmul(MemPoolConfig(1, Flow.FLOW_2D), n=8, num_cores=4)
        assert run.correct

    def test_phase_model_through_public_api(self):
        from repro.kernels import matmul_cycles, paper_tiling
        from repro.simulator import OffChipMemory

        b = matmul_cycles(paper_tiling(1), OffChipMemory(bandwidth_bytes_per_cycle=16))
        assert b.total > 0

    def test_facade_through_top_level_package(self):
        import repro

        result = repro.run(repro.Scenario(capacity_mib=1, flow="3D"))
        assert isinstance(result, repro.RunResult)
        assert result.name == "MemPool-3D-1MiB"
        assert result.objective_value() == result.edp

    def test_registry_lookups_through_top_level_package(self):
        import repro

        assert "3D" in repro.available_flows()
        assert "matmul" in repro.available_workloads()
        assert "edp" in repro.available_objectives()
        key, higher_better = repro.get_objective("performance")
        assert higher_better is True
        assert callable(repro.get_flow("2D"))
        assert callable(repro.get_workload("matmul"))

    def test_search_facade_through_top_level_package(self):
        import repro

        assert "evolutionary" in repro.available_strategies()
        space = repro.paper_space()
        assert space.cardinality == 56
        assert callable(repro.get_strategy("random"))

    def test_analysis_facade_through_top_level_package(self):
        import repro

        assert "REP001" in repro.available_lints()
        report = repro.analyze_paths([])
        assert report.findings == [] and report.files_checked == 0

    def test_legacy_import_paths_still_work(self):
        from repro.core.explorer import OBJECTIVES
        from repro.sweep import CODE_MODEL_VERSION, Job

        assert "edp" in OBJECTIVES
        assert Job(capacity_mib=1, flow="2D").key
        assert CODE_MODEL_VERSION.startswith("2.")

"""Tests for repro.kernels.matmul — simulated kernels verified vs numpy."""

import pytest

from repro.core.config import ArchParams, Flow, MemPoolConfig
from repro.kernels.matmul import (
    MatmulLayout,
    matmul_program_blocked,
    matmul_program_simple,
    run_matmul,
)
from repro.kernels.phases import PhaseModelParams, matmul_cycles
from repro.kernels.tiling import paper_tiling
from repro.simulator.memsys import OffChipMemory


@pytest.fixture
def config():
    return MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)


class TestMatmulLayout:
    def test_default_bases_are_contiguous(self):
        layout = MatmulLayout(n=8)
        assert layout.base_a == 0
        assert layout.base_b == 8 * 8 * 4
        assert layout.base_c == 2 * 8 * 8 * 4
        assert layout.bytes_needed == 3 * 8 * 8 * 4

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            MatmulLayout(n=0)


class TestSimpleKernel:
    @pytest.mark.parametrize("n,cores", [(4, 1), (8, 4), (12, 8)])
    def test_correct(self, config, n, cores):
        run = run_matmul(config, n=n, num_cores=cores, blocked=False)
        assert run.correct

    def test_single_core(self, config):
        run = run_matmul(config, n=6, num_cores=1, blocked=False)
        assert run.correct


class TestBlockedKernel:
    @pytest.mark.parametrize("n,cores", [(4, 1), (8, 4), (16, 8), (16, 16)])
    def test_correct(self, config, n, cores):
        run = run_matmul(config, n=n, num_cores=cores, blocked=True)
        assert run.correct

    def test_odd_dimension_rejected(self):
        layout = MatmulLayout(n=7)
        with pytest.raises(ValueError):
            matmul_program_blocked(layout, num_cores=4)

    def test_blocked_beats_simple(self, config):
        simple = run_matmul(config, n=16, num_cores=8, blocked=False)
        blocked = run_matmul(config, n=16, num_cores=8, blocked=True)
        assert blocked.cycles < simple.cycles
        assert blocked.cpi_mac < simple.cpi_mac

    def test_more_cores_reduce_cycles(self, config):
        few = run_matmul(config, n=16, num_cores=2)
        many = run_matmul(config, n=16, num_cores=16)
        assert many.cycles < few.cycles

    def test_oversized_operands_rejected(self):
        small = MemPoolConfig(
            capacity_mib=1,
            flow=Flow.FLOW_2D,
            arch=ArchParams(),
        )
        with pytest.raises(ValueError):
            run_matmul(small, n=600, num_cores=4)  # 3 * 600^2 * 4 > 1 MiB


class TestPrograms:
    def test_program_lengths_reasonable(self):
        layout = MatmulLayout(n=8)
        simple = matmul_program_simple(layout, num_cores=4)
        blocked = matmul_program_blocked(layout, num_cores=4)
        assert 20 < len(simple) < 60
        assert 30 < len(blocked) < 80

    def test_rejects_nonpositive_cores(self):
        layout = MatmulLayout(n=8)
        with pytest.raises(ValueError):
            matmul_program_simple(layout, num_cores=0)
        with pytest.raises(ValueError):
            matmul_program_blocked(layout, num_cores=0)


def simulated_params(config, n, num_cores, **options):
    """Phase-model parameters with the blocked kernel's simulated CPI."""
    run = run_matmul(config, n=n, num_cores=num_cores, blocked=True)
    assert run.correct
    return PhaseModelParams(
        cpi_mac=run.cpi_mac, num_cores=config.arch.num_cores, **options
    )


class TestCalibration:
    def test_calibration_produces_plausible_cpi(self, config):
        params = simulated_params(config, n=16, num_cores=8)
        # Blocking loads put the simulated CPI above the paper's optimized
        # kernel (~2.9) but it must stay within a small factor.
        assert 1.0 < params.cpi_mac < 12.0
        assert params.num_cores == 256

    def test_calibration_keeps_overhead(self, config):
        params = simulated_params(
            config, n=8, num_cores=4, phase_overhead_cycles=5000.0
        )
        assert params.phase_overhead_cycles == 5000.0
        # The simulated CPI moves the compute phase only.
        plan = paper_tiling(1)
        memory = OffChipMemory(bandwidth_bytes_per_cycle=16)
        assumed = matmul_cycles(
            plan, memory, PhaseModelParams(phase_overhead_cycles=5000.0)
        )
        simulated = matmul_cycles(plan, memory, params)
        assert simulated.overhead_cycles == assumed.overhead_cycles
        assert simulated.compute_cycles != assumed.compute_cycles

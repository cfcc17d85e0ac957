"""Tests for the extension modules: transforms and off-chip latency."""

import pytest

from repro.core.config import Flow, MemPoolConfig
from repro.kernels.transforms import (
    reduction_program,
    run_reduction,
    run_transpose,
    transpose_program,
)
from repro.simulator.memsys import OffChipMemory


@pytest.fixture
def config():
    return MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)


class TestTranspose:
    @pytest.mark.parametrize("n,cores", [(8, 4), (16, 8), (12, 3)])
    def test_correct(self, config, n, cores):
        run, _ = run_transpose(config, n=n, num_cores=cores)
        assert run.correct

    def test_interleaving_keeps_conflicts_low(self, config):
        # Column writes stride by n words, but MemPool's word interleaving
        # over 16 banks x 64 tiles spreads even bank-count-aligned strides
        # across tiles — the design property behind the low-latency SPM.
        _, aligned = run_transpose(config, n=16, num_cores=8)
        _, odd = run_transpose(config, n=15, num_cores=8)
        assert aligned < 0.05
        assert odd < 0.05

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            transpose_program(0, 4, 0, 64)


class TestReduction:
    @pytest.mark.parametrize("n,cores", [(64, 4), (128, 8), (100, 16)])
    def test_correct(self, config, n, cores):
        run, _ = run_reduction(config, num_elements=n, num_cores=cores)
        assert run.correct

    def test_barrier_per_level(self, config):
        _, episodes = run_reduction(config, num_elements=64, num_cores=8)
        # log2(8) = 3 combining levels plus the final barrier.
        assert episodes == 4

    def test_single_core(self, config):
        run, _ = run_reduction(config, num_elements=32, num_cores=1)
        assert run.correct

    def test_rejects_non_power_of_two_cores(self):
        with pytest.raises(ValueError):
            reduction_program(64, 6, 0, 256)


DEFAULT_AMBIENT = 45.0


class TestOffChipLatency:
    def test_latency_adds_per_transfer(self):
        ideal = OffChipMemory(bandwidth_bytes_per_cycle=16)
        real = OffChipMemory(bandwidth_bytes_per_cycle=16, latency_cycles=40)
        assert real.transfer_cycles(160) == ideal.transfer_cycles(160) + 40
        assert real.transfer_cycles(0) == 0

    def test_latency_negligible_for_bulk_transfers(self):
        # The paper's idealization is sound: one DRAM access latency per
        # multi-hundred-KiB tile transfer is noise.
        from repro.kernels.phases import matmul_cycles
        from repro.kernels.tiling import paper_tiling

        plan = paper_tiling(1)
        ideal = matmul_cycles(plan, OffChipMemory(bandwidth_bytes_per_cycle=16))
        real = matmul_cycles(
            plan, OffChipMemory(bandwidth_bytes_per_cycle=16, latency_cycles=100)
        )
        assert real.total / ideal.total < 1.01

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            OffChipMemory(latency_cycles=-1)

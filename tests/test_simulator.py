"""Tests for repro.simulator: engine, memsys, trace, generic programs."""

import pytest

from repro.arch.cluster import MemPoolCluster
from repro.core.config import Flow, MemPoolConfig
from repro.simulator.engine import Engine, SimulationTimeout, run_cluster
from repro.simulator.memsys import (
    DDR_CHANNEL_BYTES_PER_CYCLE,
    OffChipMemory,
    PAPER_BANDWIDTH_SWEEP,
)
from repro.simulator.program import fill_program, memcpy_program, vector_add_program
from repro.simulator.trace import collect_trace


@pytest.fixture
def config():
    return MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)


class TestEngine:
    def test_requires_loaded_program(self, config):
        with pytest.raises(ValueError):
            Engine(MemPoolCluster(config))

    def test_vector_add(self, config):
        n, cores = 64, 8
        base_a, base_b, base_c = 0, 4 * n, 8 * n
        cluster = MemPoolCluster(config)
        cluster.write_words(base_a, list(range(n)))
        cluster.write_words(base_b, [10 * i for i in range(n)])
        cluster.load_program(
            vector_add_program(n, cores, base_a, base_b, base_c), num_cores=cores
        )
        result = run_cluster(cluster)
        assert cluster.read_words(base_c, n) == [11 * i for i in range(n)]
        assert result.cycles > 0
        assert result.instructions > n

    def test_memcpy(self, config):
        n, cores = 128, 16
        src, dst = 0, 4 * n
        cluster = MemPoolCluster(config)
        payload = [i * 3 + 1 for i in range(n)]
        cluster.write_words(src, payload)
        cluster.load_program(memcpy_program(n, cores, src, dst), num_cores=cores)
        run_cluster(cluster)
        assert cluster.read_words(dst, n) == payload

    def test_fill(self, config):
        n, cores = 96, 12
        cluster = MemPoolCluster(config)
        cluster.load_program(fill_program(n, cores, 0, 0xAB), num_cores=cores)
        run_cluster(cluster)
        assert cluster.read_words(0, n) == [0xAB] * n

    def test_more_cores_run_faster(self, config):
        n = 256

        def cycles_with(cores):
            cluster = MemPoolCluster(config)
            cluster.load_program(fill_program(n, cores, 0, 1), num_cores=cores)
            return run_cluster(cluster).cycles

        assert cycles_with(16) < cycles_with(2)

    def test_timeout_raises(self, config):
        from repro.arch.isa import ProgramBuilder

        spin = ProgramBuilder()
        spin.label("forever")
        spin.j("forever")
        cluster = MemPoolCluster(config)
        cluster.load_program(spin.build(), num_cores=1)
        with pytest.raises(SimulationTimeout):
            Engine(cluster, max_cycles=100).run()

    def test_barrier_synchronizes_all_cores(self, config):
        cluster = MemPoolCluster(config)
        cluster.load_program(fill_program(64, 8, 0, 5), num_cores=8)
        result = run_cluster(cluster)
        assert result.barrier_episodes >= 1

    def test_ipc_positive(self, config):
        cluster = MemPoolCluster(config)
        cluster.load_program(fill_program(32, 4, 0, 1), num_cores=4)
        result = run_cluster(cluster)
        assert result.ipc > 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_memcpy_to_top_of_8mib(self, engine):
        """2,048-word banks: copy the first 1,536 words to the SPM's top."""
        config = MemPoolConfig(capacity_mib=8, flow=Flow.FLOW_2D)
        n, cores = 1536, 16
        dst = config.spm_bytes - 4 * n
        cluster = MemPoolCluster(config)
        payload = [i * 7 + 3 for i in range(n)]
        cluster.write_words(0, payload)
        cluster.load_program(memcpy_program(n, cores, 0, dst), num_cores=cores)
        run_cluster(cluster, engine=engine)
        assert cluster.read_words(dst, n) == payload
        assert cluster.read_words(dst - 8, 2) == [0, 0]


class TestOffChipMemory:
    def test_transfer_cycles_bandwidth_bound(self):
        mem = OffChipMemory(bandwidth_bytes_per_cycle=16)
        assert mem.transfer_cycles(160) == 10
        assert mem.transfer_cycles(161) == 11
        assert mem.transfer_cycles(0) == 0

    def test_rejects_negative_bytes(self):
        mem = OffChipMemory()
        with pytest.raises(ValueError):
            mem.transfer_cycles(-1)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            OffChipMemory(bandwidth_bytes_per_cycle=0)

    def test_load_store_logging(self):
        mem = OffChipMemory(bandwidth_bytes_per_cycle=8)
        mem.load(64)
        mem.store(32)
        assert mem.total_bytes == 96
        assert mem.total_cycles == 8 + 4
        assert [t.is_store for t in mem.transfers] == [False, True]

    def test_paper_sweep_contains_ddr_channel(self):
        assert DDR_CHANNEL_BYTES_PER_CYCLE in PAPER_BANDWIDTH_SWEEP
        assert tuple(sorted(PAPER_BANDWIDTH_SWEEP)) == PAPER_BANDWIDTH_SWEEP

    def test_halving_bandwidth_doubles_cycles(self):
        fast = OffChipMemory(bandwidth_bytes_per_cycle=32)
        slow = OffChipMemory(bandwidth_bytes_per_cycle=16)
        assert slow.transfer_cycles(4096) == 2 * fast.transfer_cycles(4096)


class TestTrace:
    def test_trace_counts_locality(self, config):
        cluster = MemPoolCluster(config)
        cluster.load_program(fill_program(256, 8, 0, 1), num_cores=8)
        result = run_cluster(cluster)
        trace = collect_trace(cluster, result.cycles)
        assert trace.total_accesses > 0
        local, group, remote = trace.locality_fractions
        assert local + group + remote == pytest.approx(1.0)
        assert trace.conflict_rate >= 0
        assert trace.barrier_episodes == result.barrier_episodes

    def test_interleaved_fill_reaches_remote_banks(self, config):
        # 256 words span all 16 banks of tiles 0..? => remote traffic exists.
        cluster = MemPoolCluster(config)
        cluster.load_program(fill_program(1024, 4, 0, 1), num_cores=4)
        result = run_cluster(cluster)
        trace = collect_trace(cluster, result.cycles)
        assert trace.group_accesses + trace.cluster_accesses > 0

    def test_empty_trace(self, config):
        cluster = MemPoolCluster(config)
        trace = collect_trace(cluster, 0)
        assert trace.total_accesses == 0
        assert trace.locality_fractions == (0.0, 0.0, 0.0)
        assert trace.icache_hit_rate == 1.0

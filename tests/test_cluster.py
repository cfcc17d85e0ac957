"""Tests for repro.arch.{tile,group,cluster} and the fabric router."""

import pytest

from repro.arch.cluster import Barrier, MemPoolCluster
from repro.arch.group import Group, INTERCONNECT_DIRECTIONS
from repro.arch.tile import Tile, TileInventory
from repro.core.config import ArchParams, Flow, MemPoolConfig


@pytest.fixture
def config():
    return MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)


class TestTile:
    def test_structure(self):
        tile = Tile(tile_id=5, words_per_bank=256)
        assert len(tile.spm.banks) == 16
        assert tile.group_id == 0
        assert tile.local_tile_index == 5

    def test_group_assignment(self):
        tile = Tile(tile_id=17, words_per_bank=4)
        assert tile.group_id == 1
        assert tile.local_tile_index == 1

    def test_access_tracks_local_vs_remote(self):
        tile = Tile(tile_id=0, words_per_bank=4)
        tile.access(0, 0, 0, write=False)
        tile.access(1, 1, 0, write=False, remote=True)
        assert tile.port_stats.local_requests == 1
        assert tile.port_stats.remote_in_requests == 1

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            Tile(tile_id=-1, words_per_bank=4)

    def test_inventory_counts(self):
        inv = TileInventory()
        assert inv.crossbar_masters == 8
        assert inv.crossbar_slaves == 16
        assert inv.spm_macros == 16
        assert inv.icache_macros == 4


class TestGroup:
    def test_structure(self):
        group = Group(group_id=2, words_per_bank=4)
        assert len(group.tiles) == 16
        assert group.tiles[0].tile_id == 32
        assert set(group.interconnects) == set(INTERCONNECT_DIRECTIONS)

    def test_direction_mapping(self):
        group = Group(group_id=0, words_per_bank=4)
        assert group.direction_to(0) == "local"
        assert group.direction_to(1) == "east"
        assert group.direction_to(2) == "north"
        assert group.direction_to(3) == "northeast"

    def test_direction_symmetry(self):
        # The XOR relation makes direction(a->b) == direction(b->a).
        for a in range(4):
            for b in range(4):
                ga = Group(group_id=a, words_per_bank=4)
                gb = Group(group_id=b, words_per_bank=4)
                assert ga.direction_to(b) == gb.direction_to(a)

    def test_direction_bounds(self):
        group = Group(group_id=0, words_per_bank=4)
        with pytest.raises(ValueError):
            group.direction_to(4)

    def test_bad_group_id(self):
        with pytest.raises(ValueError):
            Group(group_id=9, words_per_bank=4)


class TestBarrier:
    def test_releases_when_all_arrive(self):
        barrier = Barrier(parties=3)
        r0 = barrier.arrive(0)
        r1 = barrier.arrive(1)
        assert not r0() and not r1()
        r2 = barrier.arrive(2)
        assert r0() and r1() and r2()
        assert barrier.episodes == 1

    def test_generations_are_independent(self):
        barrier = Barrier(parties=2)
        barrier.arrive(0)
        barrier.arrive(1)
        second = barrier.arrive(0)
        assert not second()
        barrier.arrive(1)
        assert second()
        assert barrier.episodes == 2

    def test_reduce_parties_releases_waiters(self):
        barrier = Barrier(parties=3)
        r0 = barrier.arrive(0)
        barrier.arrive(1)
        barrier.reduce_parties(1)  # third party halted
        assert r0()

    def test_rejects_zero_parties(self):
        with pytest.raises(ValueError):
            Barrier(parties=0)


class TestMemPoolCluster:
    def test_structure(self, config):
        cluster = MemPoolCluster(config)
        assert len(cluster.groups) == 4
        assert len(cluster.tiles) == 64
        assert cluster.tile(20).tile_id == 20

    def test_backdoor_roundtrip(self, config):
        cluster = MemPoolCluster(config)
        words = [7, 99, 0xFFFFFFFF, 12345]
        cluster.write_words(128, words)
        assert cluster.read_words(128, len(words)) == words

    def test_backdoor_spreads_over_banks(self, config):
        cluster = MemPoolCluster(config)
        cluster.write_words(0, list(range(32)))
        bank0 = cluster.tile(0).bank(0)
        bank1 = cluster.tile(0).bank(1)
        assert bank0.peek(0) == 0
        assert bank1.peek(0) == 1

    def test_load_program_creates_cores(self, config):
        from repro.simulator.program import fill_program

        cluster = MemPoolCluster(config)
        cluster.load_program(fill_program(16, 4, 0, 1), num_cores=4)
        assert len(cluster.cores) == 4
        assert all(c.barrier_arrive is not None for c in cluster.cores)

    def test_load_program_rejects_too_many_cores(self, config):
        from repro.simulator.program import fill_program

        cluster = MemPoolCluster(config)
        with pytest.raises(ValueError):
            cluster.load_program(fill_program(16, 4, 0, 1), num_cores=1000)

    def test_small_arch_cluster(self):
        arch = ArchParams(cores_per_tile=2, tiles_per_group=4, groups=2, banks_per_tile=4)
        config = MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D, arch=arch)
        cluster = MemPoolCluster(config)
        assert len(cluster.tiles) == 8
        assert cluster.memory_map.spm_bytes == 1 << 20


class TestLargestCapacity:
    """8 MiB: 2,048-word banks, of which a workload touches a few."""

    @pytest.fixture
    def config(self):
        return MemPoolConfig(capacity_mib=8, flow=Flow.FLOW_2D)

    def test_setup_memory_does_not_grow_with_capacity(self, config):
        import tracemalloc

        # 2,048 words span every one of the 1,024 interleaved banks.
        words = list(range(1, 2049))
        tracemalloc.start()
        try:
            cluster = MemPoolCluster(config)
            cluster.write_words(0, words)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert cluster.read_words(0, len(words)) == words

    def test_export_import_roundtrip(self, config):
        cluster = MemPoolCluster(config)
        words = list(range(1, 2049))
        cluster.write_words(0, words)
        top = config.spm_bytes - 4
        cluster.write_words(top, [0xCAFEF00D])
        image = cluster.export_spm()
        assert image.size == config.spm_bytes // 4
        assert image[: len(words)].tolist() == words
        assert image[-1] == 0xCAFEF00D
        assert not image[len(words) : -1].any()  # untouched words read 0

        image[5] = 0
        fresh = MemPoolCluster(config)
        fresh.import_spm(image)
        assert fresh.read_words(0, 8) == [1, 2, 3, 4, 5, 0, 7, 8]
        assert fresh.read_words(top - 8, 3) == [0, 0, 0xCAFEF00D]
        assert (fresh.export_spm() == image).all()


class TestFabricRouter:
    def test_local_access_latency(self, config):
        cluster = MemPoolCluster(config)
        accepted, latency, _ = cluster.router.access(0, 0, 0, is_store=False)
        assert accepted
        assert latency == 1

    def test_remote_group_latency(self, config):
        cluster = MemPoolCluster(config)
        # Find an address in a remote group for core 0.
        from repro.arch.memory_map import BankAddress

        addr = cluster.memory_map.encode(BankAddress(group=2, tile=0, bank=0, offset=0))
        accepted, latency, _ = cluster.router.access(0, 0, addr, is_store=False)
        assert accepted
        assert latency == 5

    def test_bank_conflict_refused(self, config):
        cluster = MemPoolCluster(config)
        ok, _, _ = cluster.router.access(0, 0, 0, is_store=False)
        blocked, _, _ = cluster.router.access(0, 1, 0, is_store=False)
        assert ok and not blocked
        assert cluster.router.stats.bank_conflicts == 1

    def test_remote_port_limit(self, config):
        cluster = MemPoolCluster(config)
        from repro.arch.memory_map import BankAddress

        # 5 remote requests to distinct banks of tile 1 in the same cycle:
        # only 4 remote ports exist.
        grants = []
        for bank in range(5):
            addr = cluster.memory_map.encode(
                BankAddress(group=0, tile=1, bank=bank, offset=0)
            )
            ok, _, _ = cluster.router.access(0, 0, addr, is_store=False)
            grants.append(ok)
        assert sum(grants) == 4
        assert cluster.router.stats.port_conflicts == 1

    def test_write_visible_after_routing(self, config):
        cluster = MemPoolCluster(config)
        cluster.router.access(0, 0, 64, is_store=True, value=41)
        _, _, data = cluster.router.access(1, 0, 64, is_store=False)
        assert data == 41

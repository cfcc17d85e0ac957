"""FleetEngine equivalence: bit-for-bit against FastEngine per lane.

Every lane of a fleet must leave its cluster in *exactly* the state a
solo :class:`~repro.simulator.fast.FastEngine` run would have left it
in — cycles, instructions, barrier episodes, per-core stall breakdowns,
router/tile/bank/i-cache counters, and SPM contents — no matter what
rides in the other lanes: other workloads, other core counts, lanes
that retire earlier, lanes that fault, or lanes that time out.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cluster import MemPoolCluster
from repro.arch.isa import ProgramBuilder
from repro.core.config import Flow, MemPoolConfig
from repro.kernels.workloads import (
    prepare_axpy,
    prepare_conv2d,
    prepare_dotp,
    prepare_matvec,
    prepare_stencil5,
)
from repro.simulator.engine import SimulationTimeout
from repro.simulator.fast import FastEngine
from repro.simulator.fleet import FleetEngine

PREPARERS = {
    "dotp": lambda config, cores: prepare_dotp(config, 64, cores),
    "axpy": lambda config, cores: prepare_axpy(config, 64, cores),
    "conv2d": lambda config, cores: prepare_conv2d(config, 10, 10, cores),
    "matvec": lambda config, cores: prepare_matvec(config, 20, 20, cores),
    "stencil5": lambda config, cores: prepare_stencil5(config, 10, 10, cores),
}


def _config(flow: str) -> MemPoolConfig:
    return MemPoolConfig(capacity_mib=1, flow=Flow(flow))


def _snapshot(cluster, result=None):
    """Everything observable on a cluster after a run."""
    snap = {}
    for i, core in enumerate(cluster.cores):
        state = core.export_state()
        state["barrier_release"] = state["barrier_release"] is not None
        snap[f"core{i}"] = state
        snap[f"stats{i}"] = vars(core.stats).copy()
    for t, tile in enumerate(cluster.tiles):
        snap[f"tile{t}"] = vars(tile.port_stats).copy()
        for b, bank in enumerate(tile.spm.banks):
            snap[f"bank{t}.{b}"] = (
                bank.busy_cycle, vars(bank.stats).copy(),
                tuple(bank.export_words()),
            )
        icache = getattr(tile, "icache", None)
        if icache is not None:
            snap[f"icache{t}"] = vars(icache.stats).copy()
    snap["router"] = vars(cluster.router.stats).copy()
    snap["port_state"] = cluster.router.export_port_state()
    snap["episodes"] = cluster.barrier.episodes
    if result is not None:
        snap["result"] = (result.cycles, result.instructions,
                          result.barrier_episodes)
    return snap


def _assert_lane_identical(fast_pair, fleet_pair):
    fast_snap = _snapshot(*fast_pair)
    fleet_snap = _snapshot(*fleet_pair)
    for key in sorted(set(fast_snap) | set(fleet_snap)):
        assert fleet_snap.get(key) == fast_snap.get(key), key


class TestFleetEquivalence:
    """Bit-for-bit per lane: workloads x {1,4,16} cores x both flows."""

    @pytest.mark.parametrize("flow", ["2D", "3D"])
    @pytest.mark.parametrize("cores", [1, 4, 16])
    def test_all_workloads_one_fleet(self, cores, flow):
        names = sorted(PREPARERS)
        fast_runs = []
        for name in names:
            cluster, finish = PREPARERS[name](_config(flow), cores)
            result = FastEngine(cluster).run()
            assert finish(result).correct, name
            fast_runs.append((cluster, result))

        fleet_lanes = [
            PREPARERS[name](_config(flow), cores) for name in names
        ]
        outcomes = FleetEngine(
            [cluster for cluster, _fin in fleet_lanes]
        ).run()
        for name, fast_pair, (cluster, finish), out in zip(
            names, fast_runs, fleet_lanes, outcomes
        ):
            assert out.error is None, (name, out.error)
            assert finish(out.result).correct, name
            _assert_lane_identical(fast_pair, (cluster, out.result))

    def test_mixed_core_counts_one_fleet(self):
        """Heterogeneous topologies batch together and retire apart."""
        shapes = [("dotp", 1), ("dotp", 16), ("axpy", 4), ("matvec", 16)]
        fast_runs = []
        for name, cores in shapes:
            cluster, _fin = PREPARERS[name](_config("2D"), cores)
            fast_runs.append((cluster, FastEngine(cluster).run()))
        fleet_lanes = [
            PREPARERS[name](_config("2D"), cores) for name, cores in shapes
        ]
        outcomes = FleetEngine(
            [cluster for cluster, _fin in fleet_lanes]
        ).run()
        for fast_pair, (cluster, _fin), out in zip(
            fast_runs, fleet_lanes, outcomes
        ):
            assert out.error is None
            _assert_lane_identical(fast_pair, (cluster, out.result))

    def test_mid_batch_lane_retirement(self):
        """A lane 10x shorter than its neighbours exits early untouched."""
        dims = [16, 256, 16, 192]
        fast_runs = []
        for dim in dims:
            cluster, _fin = prepare_dotp(_config("2D"), dim, 1)
            fast_runs.append((cluster, FastEngine(cluster).run()))
        fleet_lanes = [prepare_dotp(_config("2D"), dim, 1) for dim in dims]
        outcomes = FleetEngine(
            [cluster for cluster, _fin in fleet_lanes]
        ).run()
        cycle_counts = [out.result.cycles for out in outcomes]
        assert cycle_counts[0] < cycle_counts[1]  # lanes really retire apart
        for fast_pair, (cluster, _fin), out in zip(
            fast_runs, fleet_lanes, outcomes
        ):
            _assert_lane_identical(fast_pair, (cluster, out.result))


def _top_of_spm_cluster(config, cores):
    """Harts store just below the top of the SPM, then copy their
    neighbour's word further down (the last hart's neighbour is the
    untouched final word, which reads 0)."""
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(9, 4)
    b.mul(9, 1, 9)
    b.li(2, config.spm_bytes - 4 * (cores + 1))
    b.add(2, 2, 9)
    b.addi(3, 1, 100)
    b.sw(3, 2, 0)
    b.barrier()
    b.lw(4, 2, 4)
    b.sw(4, 2, -4 * cores)
    b.halt()
    cluster = MemPoolCluster(config)
    cluster.load_program(b.build(), num_cores=cores)
    return cluster


class TestLargestCapacity:
    def test_8mib_lanes_match_fast(self):
        """2,048-word banks: a stencil past the first 1,024 words and a
        program working at the very top of the SPM share one fleet."""
        config = MemPoolConfig(capacity_mib=8, flow=Flow.FLOW_3D)

        def lanes():
            stencil, finish = prepare_stencil5(config, 34, 34, 16)
            return [(stencil, finish), (_top_of_spm_cluster(config, 4), None)]

        fast_runs = [(cluster, FastEngine(cluster).run()) for cluster, _ in lanes()]
        fleet_lanes = lanes()
        outcomes = FleetEngine([cluster for cluster, _fin in fleet_lanes]).run()
        for fast_pair, (cluster, _fin), out in zip(fast_runs, fleet_lanes, outcomes):
            assert out.error is None
            _assert_lane_identical(fast_pair, (cluster, out.result))
        assert fleet_lanes[0][1](outcomes[0].result).correct
        top = config.spm_bytes - 4 * 5
        assert fleet_lanes[1][0].read_words(top - 16, 9) == [
            101, 102, 103, 0, 100, 101, 102, 103, 0
        ]


def _spin_cluster():
    builder = ProgramBuilder()
    builder.label("spin")
    builder.j("spin")
    cluster = MemPoolCluster(_config("2D"))
    cluster.load_program(builder.build(), num_cores=4)
    return cluster


def _fault_cluster():
    builder = ProgramBuilder()
    builder.li(1, 0x7FFFFFF0)
    builder.lw(2, 1, 0)
    builder.halt()
    cluster = MemPoolCluster(_config("2D"))
    cluster.load_program(builder.build(), num_cores=2)
    return cluster


class TestFleetFailureLanes:
    """Faulting/timing-out lanes fail alone, identically to FastEngine."""

    def test_timeout_lane_isolated(self):
        fast_cluster = _spin_cluster()
        with pytest.raises(SimulationTimeout) as excinfo:
            FastEngine(fast_cluster, max_cycles=500).run()
        fast_error = str(excinfo.value)

        good_fast, _ = prepare_dotp(_config("2D"), 64, 16)
        fast_result = FastEngine(good_fast, max_cycles=500).run()

        spin = _spin_cluster()
        good, _fin = prepare_dotp(_config("2D"), 64, 16)
        outcomes = FleetEngine([spin, good], max_cycles=500).run()
        assert isinstance(outcomes[0].error, SimulationTimeout)
        assert str(outcomes[0].error) == fast_error
        assert outcomes[0].result is None and not outcomes[0].ok
        assert outcomes[1].error is None and outcomes[1].ok
        _assert_lane_identical((fast_cluster, None), (spin, None))
        _assert_lane_identical(
            (good_fast, fast_result), (good, outcomes[1].result)
        )

    def test_fault_lane_isolated(self):
        fast_cluster = _fault_cluster()
        with pytest.raises(ValueError) as excinfo:
            FastEngine(fast_cluster).run()
        fast_error = str(excinfo.value)

        good_fast, _ = prepare_dotp(_config("2D"), 64, 16)
        fast_result = FastEngine(good_fast).run()

        good, _fin = prepare_dotp(_config("2D"), 64, 16)
        fault = _fault_cluster()
        outcomes = FleetEngine([good, fault]).run()
        assert isinstance(outcomes[1].error, ValueError)
        assert str(outcomes[1].error) == fast_error
        assert outcomes[0].error is None
        _assert_lane_identical((fast_cluster, None), (fault, None))
        _assert_lane_identical(
            (good_fast, fast_result), (good, outcomes[0].result)
        )


class TestFleetSupports:
    def test_supports_standard_cluster(self):
        cluster, _fin = prepare_dotp(_config("2D"), 16, 4)
        assert FleetEngine.supports(cluster)

    def test_rejects_scoreboard_cores(self):
        builder = ProgramBuilder()
        builder.halt()
        cluster = MemPoolCluster(_config("2D"))
        cluster.load_program(builder.build(), num_cores=2, scoreboard=True)
        assert not FleetEngine.supports(cluster)
        with pytest.raises(ValueError, match="lane 0"):
            FleetEngine([cluster])

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="no lanes"):
            FleetEngine([])


# ---------------------------------------------------------------------------
# Randomized differential: the same SPMD program family the fast engine
# is fuzzed with, ridden in multi-lane fleets against solo fast runs.

reg = st.integers(min_value=1, max_value=7)
imm = st.integers(min_value=-64, max_value=64)
offset = st.integers(min_value=0, max_value=47)

operation = st.one_of(
    st.tuples(st.just("li"), reg, imm),
    st.tuples(st.just("add"), reg, reg, reg),
    st.tuples(st.just("sub"), reg, reg, reg),
    st.tuples(st.just("addi"), reg, reg, imm),
    st.tuples(st.just("mul"), reg, reg, reg),
    st.tuples(st.just("mac"), reg, reg, reg),
    st.tuples(st.just("lw"), reg, offset),
    st.tuples(st.just("lw_post"), reg, offset),
    st.tuples(st.just("sw"), reg, offset),
    st.tuples(st.just("barrier")),
)


def _build_spmd(ops):
    """A straight-line SPMD program; addresses salt with the hart id."""
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(9, 4)
    b.mul(9, 1, 9)  # x9 = 4 * hartid: per-core address salt
    for op in ops:
        name = op[0]
        if name == "li":
            b.li(op[1], op[2])
        elif name == "add":
            b.add(op[1], op[2], op[3])
        elif name == "sub":
            b.sub(op[1], op[2], op[3])
        elif name == "addi":
            b.addi(op[1], op[2], op[3])
        elif name == "mul":
            b.mul(op[1], op[2], op[3])
        elif name == "mac":
            b.mac(op[1], op[2], op[3])
        elif name == "lw":
            b.li(8, op[2] * 4)
            b.lw(op[1], 8, 0)
        elif name == "lw_post":
            b.li(8, op[2] * 4)
            b.add(8, 8, 9)
            b.lw_postinc(op[1], 8, 4)
        elif name == "sw":
            b.li(8, op[2] * 4)
            b.add(8, 8, 9)
            b.sw(op[1], 8, 0)
        elif name == "barrier":
            b.barrier()
    b.barrier()
    b.halt()
    return b.build()


def _loaded(program, cores):
    cluster = MemPoolCluster(_config("2D"))
    cluster.write_words(0, [(i * 2654435761) & 0xFFFFFFFF
                            for i in range(128)])
    cluster.load_program(program, num_cores=cores)
    return cluster


class TestRandomizedDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.lists(operation, min_size=1, max_size=16),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_random_fleets_match_fast(self, lanes):
        programs = [(_build_spmd(ops), cores) for ops, cores in lanes]
        fast_runs = []
        for program, cores in programs:
            cluster = _loaded(program, cores)
            fast_runs.append((cluster, FastEngine(cluster).run()))
        fleet_clusters = [
            _loaded(program, cores) for program, cores in programs
        ]
        outcomes = FleetEngine(fleet_clusters).run()
        for fast_pair, cluster, out in zip(
            fast_runs, fleet_clusters, outcomes
        ):
            assert out.error is None
            _assert_lane_identical(fast_pair, (cluster, out.result))

"""Fast-engine equivalence: bit-for-bit against the reference oracle.

Every workload the evaluation stack simulates must produce *identical*
results — cycles, instructions, barrier episodes, per-core stall
breakdowns, fabric counters, and SPM contents — on the fast SoA engine
and the reference cycle-by-cycle engine.  These tests run both engines
on fresh clusters and diff everything observable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cluster import MemPoolCluster
from repro.arch.isa import ProgramBuilder
from repro.core.config import Flow, MemPoolConfig
from repro.kernels.blocked import run_blocked_matmul
from repro.kernels.tiling import TilingPlan
from repro.kernels.workloads import (
    prepare_axpy,
    prepare_conv2d,
    prepare_dotp,
    prepare_matvec,
    prepare_stencil5,
    run_axpy,
    run_conv2d,
    run_dotp,
    run_matvec,
    run_stencil5,
)
from repro.simulator.engine import (
    Engine,
    SimulationTimeout,
    run_cluster,
)
from repro.simulator.fast import FastEngine
from repro.simulator.memsys import OffChipMemory
from repro.simulator.trace import collect_trace

WORKLOADS = {
    "dotp": lambda config, cores, engine: run_dotp(
        config, 96, cores, sim_engine=engine
    ),
    "axpy": lambda config, cores, engine: run_axpy(
        config, 96, cores, sim_engine=engine
    ),
    "conv2d": lambda config, cores, engine: run_conv2d(
        config, 10, 10, cores, sim_engine=engine
    ),
    "matvec": lambda config, cores, engine: run_matvec(
        config, 20, 20, cores, sim_engine=engine
    ),
    "stencil5": lambda config, cores, engine: run_stencil5(
        config, 10, 10, cores, sim_engine=engine
    ),
}


def _config(flow: str) -> MemPoolConfig:
    return MemPoolConfig(capacity_mib=1, flow=Flow(flow))


class TestWorkloadEquivalence:
    """Bit-for-bit over every simulator workload x cores x flows."""

    @pytest.mark.parametrize("flow", ["2D", "3D"])
    @pytest.mark.parametrize("cores", [1, 4, 16])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_bit_for_bit(self, workload, cores, flow):
        runner = WORKLOADS[workload]
        ref = runner(_config(flow), cores, "reference")
        fast = runner(_config(flow), cores, "fast")
        assert ref.correct and fast.correct
        assert fast.cycles == ref.cycles
        assert fast.instructions == ref.instructions

    @pytest.mark.parametrize("scoreboard", [False, True])
    def test_blocked_matmul_bit_for_bit(self, scoreboard):
        plan = TilingPlan(matrix_dim=8, tile_size=4, word_bytes=4)
        outcomes = {}
        for engine in ("reference", "fast"):
            outcomes[engine] = run_blocked_matmul(
                _config("2D"), plan, OffChipMemory(), num_cores=4,
                scoreboard=scoreboard, sim_engine=engine,
            )
        ref, fast = outcomes["reference"], outcomes["fast"]
        assert ref.correct and fast.correct
        assert fast.compute_cycles == ref.compute_cycles
        assert fast.total_cycles == ref.total_cycles


def _core_state(core):
    """A core's export_state(), less its barrier-release closure."""
    state = core.export_state()
    del state["barrier_release"]
    return state


def _diff_clusters(build, load, max_cycles=5_000_000, raises=None,
                   then=None):
    """Run the same program under both engines; diff everything.

    With ``raises``, both runs must raise that error with the same
    message, and the state each leaves on its cluster is diffed.  With
    ``then``, each engine first runs ``load``'s program to completion,
    then ``then`` loads a second program onto the same cluster, and the
    second run is diffed: it starts from the port, bank and SPM state
    the first run left.
    """
    results = {}
    for engine_name in ("reference", "fast"):
        engine_class = Engine if engine_name == "reference" else FastEngine
        cluster = build()
        load(cluster)
        if then is not None:
            engine_class(cluster, max_cycles=max_cycles).run()
            then(cluster)
        assert engine_class is Engine or FastEngine.supports(cluster)
        engine = engine_class(cluster, max_cycles=max_cycles)
        if raises is None:
            outcome = engine.run()
        else:
            with pytest.raises(raises) as excinfo:
                engine.run()
            outcome = str(excinfo.value)
        results[engine_name] = (cluster, outcome, engine.cycle)
    ref_cluster, ref, ref_cycle = results["reference"]
    fast_cluster, fast, fast_cycle = results["fast"]

    assert fast_cycle == ref_cycle
    if raises is None:
        assert fast.cycles == ref.cycles
        assert fast.instructions == ref.instructions
        assert fast.barrier_episodes == ref.barrier_episodes
    else:
        assert fast == ref
    # per-core architectural + microarchitectural state
    for ref_core, fast_core in zip(ref_cluster.cores, fast_cluster.cores):
        assert _core_state(fast_core) == _core_state(ref_core)
        assert vars(fast_core.stats) == vars(ref_core.stats)
    assert (fast_cluster.barrier.export_state()
            == ref_cluster.barrier.export_state())
    # fabric and cache counters
    assert vars(fast_cluster.router.stats) == vars(ref_cluster.router.stats)
    assert (fast_cluster.router.export_port_state()
            == ref_cluster.router.export_port_state())
    for ref_tile, fast_tile in zip(ref_cluster.tiles, fast_cluster.tiles):
        assert vars(fast_tile.port_stats) == vars(ref_tile.port_stats)
        assert fast_tile.icache.export_state() == ref_tile.icache.export_state()
        for ref_bank, fast_bank in zip(
            ref_tile.spm.banks, fast_tile.spm.banks
        ):
            assert vars(fast_bank.stats) == vars(ref_bank.stats)
            assert fast_bank.busy_cycle == ref_bank.busy_cycle
    # full SPM image
    assert (
        fast_cluster.export_spm() == ref_cluster.export_spm()
    ).all()
    trace_ref = collect_trace(ref_cluster, ref_cycle)
    trace_fast = collect_trace(fast_cluster, fast_cycle)
    assert trace_fast == trace_ref
    return ref


def _fault_program(faulting_hart):
    """Every hart but one loops over stores; that one stores, then loads
    from a wild address while the lower harts sit in branch shadows."""
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, faulting_hart)
    b.li(7, 4)
    b.mul(7, 1, 7)  # x7 = 4 * hartid: this hart's word
    b.li(5, 0)
    b.li(6, 40)
    b.bne(1, 2, "loop")
    b.sw(1, 7, 0)
    b.addi(5, 5, 1)
    b.addi(5, 5, 1)
    b.li(3, 0x7FFFFFF0)
    b.lw(4, 3, 0)  # wild load: outside the SPM
    b.halt()
    b.label("loop")
    b.addi(5, 5, 1)
    b.sw(5, 7, 0)
    b.blt(5, 6, "loop")
    b.halt()
    return b.build()


def _spin_program():
    """Each hart loops forever: a remote load, ALU ops, a taken branch."""
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(9, 4)
    b.mul(9, 1, 9)  # x9 = 4 * hartid: all harts load from tile 0
    b.li(5, 0)
    b.li(6, 0)
    b.li(8, -1)
    b.label("loop")
    b.lw(4, 9, 0)
    b.add(5, 5, 4)
    b.addi(6, 6, 1)
    b.mul(7, 5, 6)
    b.bne(6, 8, "loop")  # x6 never reaches -1 here
    b.halt()
    return b.build()


def _port_program(detour):
    """Each hart of tile 0 stores to its own bank of tile 1 at cycle 4:
    banks 0-3, or with ``detour`` banks 4-7 after a store to tile 2 at
    cycle 3."""
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(7, 4)
    b.mul(7, 1, 7)  # x7 = 4 * hartid: this hart's bank
    if detour:
        b.sw(1, 7, 128)
        b.sw(1, 7, 80)
    else:
        b.nop()
        b.sw(1, 7, 64)
    b.halt()
    return b.build()


class TestEngineStateEquivalence:
    """Deep diffs: stats, traces, and memory images match exactly."""

    @pytest.mark.parametrize("scoreboard", [False, True])
    @pytest.mark.parametrize("cores", [1, 4, 16])
    def test_matmul_full_state(self, cores, scoreboard):
        from repro.kernels.matmul import MatmulLayout, matmul_program_blocked

        layout = MatmulLayout(n=8)
        program = matmul_program_blocked(layout, cores)

        def load(cluster):
            cluster.write_words(layout.base_a, list(range(1, 65)))
            cluster.write_words(layout.base_b, list(range(101, 165)))
            cluster.load_program(
                program, num_cores=cores, scoreboard=scoreboard
            )

        _diff_clusters(lambda: MemPoolCluster(_config("2D")), load)

    @pytest.mark.parametrize("scoreboard", [False, True])
    def test_cold_icache_full_state(self, scoreboard):
        """hot_icache=False exercises the simulated-fetch path."""
        from repro.simulator.program import vector_add_program

        program = vector_add_program(64, 8, 0, 512, 1024)

        def load(cluster):
            cluster.write_words(0, list(range(64)))
            cluster.write_words(512, list(range(64)))
            cluster.load_program(
                program, num_cores=8, hot_icache=False, scoreboard=scoreboard
            )

        _diff_clusters(lambda: MemPoolCluster(_config("2D")), load)

    def test_timeout_equivalence(self):
        """Both engines raise the same timeout at the same limit, leaving
        identical per-core state — including a core deadlocked on a
        barrier (asleep, fast-forwarded past) at the moment of timeout."""
        builder = ProgramBuilder()
        builder.csrr_hartid(1)
        builder.li(2, 1)
        builder.blt(1, 2, "spin")  # hart 0 spins; hart 1+ joins a barrier
        builder.barrier()          # never releases: hart 0 never arrives
        builder.halt()
        builder.label("spin")
        builder.j("spin")
        program = builder.build()
        observed = {}
        for engine in ("reference", "fast"):
            cluster = MemPoolCluster(_config("2D"))
            cluster.load_program(program, num_cores=4)
            with pytest.raises(SimulationTimeout) as excinfo:
                run_cluster(cluster, max_cycles=200, engine=engine)
            observed[engine] = (
                str(excinfo.value),
                [vars(core.stats) for core in cluster.cores],
                [core.state for core in cluster.cores],
            )
        assert observed["fast"] == observed["reference"]

    def test_fault_mirrors_progress_like_reference(self):
        """A wild address aborts the run but leaves prior progress
        (SPM writes, retired-instruction counts) on the cluster, as the
        in-place reference engine does."""
        builder = ProgramBuilder()
        builder.li(1, 42)
        builder.li(2, 4)
        builder.sw(1, 2, 0)
        builder.li(3, 0x7FFFFFF0)
        builder.lw(4, 3, 0)  # wild load: outside the SPM
        builder.halt()
        program = builder.build()
        observed = {}
        for engine in (Engine, FastEngine):
            cluster = MemPoolCluster(_config("2D"))
            cluster.load_program(program, num_cores=1)
            with pytest.raises(ValueError, match="outside SPM"):
                engine(cluster).run()
            observed[engine] = (
                cluster.read_words(4, 1)[0],
                cluster.cores[0].stats.instructions,
                cluster.cores[0].stats.cycles,
            )
        assert observed[FastEngine] == observed[Engine]

    @pytest.mark.parametrize("hot_icache", [True, False])
    @pytest.mark.parametrize("scoreboard", [False, True])
    @pytest.mark.parametrize("faulting_hart", [0, 2, 5])
    def test_multicore_fault_state_like_reference(
        self, faulting_hart, scoreboard, hot_icache
    ):
        """A wild address aborts the run and leaves exactly the state the
        in-place reference engine leaves: prior SPM writes, and every
        core's progress up to and including the faulting cycle."""
        program = _fault_program(faulting_hart)

        def load(cluster):
            cluster.load_program(
                program, num_cores=6, hot_icache=hot_icache,
                scoreboard=scoreboard,
            )

        _diff_clusters(
            lambda: MemPoolCluster(_config("2D")), load, raises=ValueError
        )

    @pytest.mark.parametrize("scoreboard", [False, True])
    @pytest.mark.parametrize("max_cycles", [3, 7, 8, 9, 10, 11, 57, 200])
    def test_timeout_inside_run_ahead(self, max_cycles, scoreboard):
        """Limits that fall inside load waits, branch shadows and ALU
        runs leave the reference's state, waits half-served included."""
        program = _spin_program()

        def load(cluster):
            cluster.load_program(program, num_cores=16, scoreboard=scoreboard)

        _diff_clusters(
            lambda: MemPoolCluster(_config("2D")), load,
            max_cycles=max_cycles, raises=SimulationTimeout,
        )

    def test_timeout_commits_load_returned_in_refill(self):
        """A scoreboarded core that times out in an i-cache refill has
        committed the load that returned during the refill."""
        b = ProgramBuilder()
        for _ in range(7):
            b.nop()
        b.lw(1, 0, 64)  # last op of the first i-cache line: a remote load
        b.halt()  # first op of the next line: a refill until cycle 48
        program = b.build()

        def load(cluster):
            cluster.write_words(64, [1234])
            cluster.load_program(
                program, num_cores=1, hot_icache=False, scoreboard=True
            )

        _diff_clusters(
            lambda: MemPoolCluster(_config("2D")), load, max_cycles=40,
            raises=SimulationTimeout,
        )

    @pytest.mark.parametrize("scoreboard", [False, True])
    @pytest.mark.parametrize("detour", [False, True])
    def test_second_run_sees_first_runs_port_claims(self, detour, scoreboard):
        """The first run leaves all of tile 1's remote ports claimed at
        cycle 4.  A second run on the same cluster that claims them at
        cycle 4 again is refused, as in the reference, unless it claimed
        a port in another cycle first (``detour``): that new cycle clears
        every stale claim."""

        def load(cluster):
            cluster.load_program(
                _port_program(detour=False), num_cores=4,
                scoreboard=scoreboard,
            )

        def then(cluster):
            cluster.load_program(
                _port_program(detour), num_cores=4, scoreboard=scoreboard
            )

        _diff_clusters(
            lambda: MemPoolCluster(_config("2D")), load, then=then
        )

    def test_barrier_deadlock_timeout(self):
        """A never-released barrier times out identically (fast-forward)."""
        builder = ProgramBuilder()
        builder.csrr_hartid(1)
        builder.li(2, 2)
        builder.blt(1, 2, "wait")  # only harts 0 and 1 join the barrier
        builder.halt()
        builder.label("wait")
        builder.barrier()
        builder.halt()
        program = builder.build()
        for engine in ("reference", "fast"):
            cluster = MemPoolCluster(_config("2D"))
            cluster.load_program(program, num_cores=2)
            # with all participants arriving this terminates...
            result = run_cluster(cluster, max_cycles=500, engine=engine)
            assert result.barrier_episodes == 1


# Operands past 1,024 words reach bank offsets beyond 0 of the
# 1,024 interleaved banks.
PREPARERS_8MIB = {
    "dotp": lambda config, cores: prepare_dotp(config, 640, cores),
    "axpy": lambda config, cores: prepare_axpy(config, 640, cores),
    "conv2d": lambda config, cores: prepare_conv2d(config, 34, 34, cores),
    "matvec": lambda config, cores: prepare_matvec(config, 36, 36, cores),
    "stencil5": lambda config, cores: prepare_stencil5(config, 34, 34, cores),
}


def _top_of_spm_program(spm_bytes: int, cores: int):
    """Each hart stores just below the top of the SPM, then, after a
    barrier, reads its neighbour's word (the last hart reads the
    untouched final word) and copies the sum below the stored block."""
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(9, 4)
    b.mul(9, 1, 9)
    b.li(2, spm_bytes - 4 * (cores + 1))
    b.add(2, 2, 9)  # x2 = this hart's word near the top
    b.addi(3, 1, 100)
    b.sw(3, 2, 0)
    b.barrier()
    b.lw(4, 2, 4)
    b.lw(5, 2, 0)
    b.add(4, 4, 5)
    b.sw(4, 2, -4 * cores)
    b.halt()
    return b.build()


class TestLargestCapacity:
    """8 MiB SPM: 2,048-word banks, full-state diffs as above."""

    @staticmethod
    def _config():
        return MemPoolConfig(capacity_mib=8, flow=Flow.FLOW_3D)

    @pytest.mark.parametrize("workload", sorted(PREPARERS_8MIB))
    def test_workload_full_state(self, workload):
        finishes = []

        def build():
            cluster, finish = PREPARERS_8MIB[workload](self._config(), 16)
            finishes.append(finish)
            return cluster

        ref = _diff_clusters(build, lambda _cluster: None)
        assert all(finish(ref).correct for finish in finishes)

    def test_top_of_spm_full_state(self):
        config = self._config()
        cores = 16
        program = _top_of_spm_program(config.spm_bytes, cores)

        def load(cluster):
            cluster.load_program(program, num_cores=cores)

        _diff_clusters(lambda: MemPoolCluster(config), load)
        cluster = MemPoolCluster(config)
        load(cluster)
        run_cluster(cluster, engine="fast")
        top = config.spm_bytes - 4 * (cores + 1)
        assert cluster.read_words(top, cores + 1) == [
            100 + hart for hart in range(cores)
        ] + [0]
        assert cluster.read_words(top - 4 * cores, cores) == [
            2 * hart + 201 for hart in range(cores - 1)
        ] + [100 + cores - 1]


class TestDispatchAndFallback:
    def test_default_engine_is_fast(self, monkeypatch):
        runs = []
        run = FastEngine.run
        monkeypatch.setattr(
            FastEngine, "run", lambda self: runs.append(self) or run(self)
        )
        cluster = MemPoolCluster(_config("2D"))
        cluster.load_program(ProgramBuilder().halt().build(), num_cores=1)
        assert run_cluster(cluster).instructions == 1
        assert len(runs) == 1

    def test_unknown_engine_rejected(self):
        cluster = MemPoolCluster(_config("2D"))
        cluster.load_program(ProgramBuilder().halt().build(), num_cores=1)
        with pytest.raises(ValueError, match="unknown simulation engine"):
            run_cluster(cluster, engine="warp")
        # Tier-0 predicts scenarios; a bare cluster has none to predict.
        with pytest.raises(ValueError, match="unknown simulation engine"):
            run_cluster(cluster, engine="analytic")

    def test_unsupported_cluster_falls_back(self):
        """A subclassed core model silently uses the reference engine."""
        from repro.arch.snitch import SnitchCore

        class TracingCore(SnitchCore):
            pass

        cluster = MemPoolCluster(_config("2D"))
        cluster.load_program(ProgramBuilder().halt().build(), num_cores=2)
        plain = cluster.cores[0]
        traced = TracingCore(
            core_id=0, program=plain.program, memory_port=plain.memory_port
        )
        traced.barrier_arrive = cluster.barrier.arrive
        cluster.cores[0] = traced
        assert not FastEngine.supports(cluster)
        result = run_cluster(cluster, engine="fast")  # falls back, still runs
        assert result.cycles >= 1
        assert result.instructions == 2

    def test_supports_standard_cluster(self):
        cluster = MemPoolCluster(_config("2D"))
        cluster.load_program(ProgramBuilder().halt().build(), num_cores=2)
        assert FastEngine.supports(cluster)

    def test_spm_export_import_roundtrip(self):
        import numpy as np

        cluster = MemPoolCluster(_config("2D"))
        cluster.write_words(0, [7, 11, 13])
        cluster.write_words(4096, [0xDEADBEEF])
        image = cluster.export_spm()
        assert image[0:3].tolist() == [7, 11, 13]
        assert image[1024] == 0xDEADBEEF
        image = np.array(image)
        image[2] = 99
        cluster.import_spm(image)
        assert cluster.read_words(0, 3) == [7, 11, 99]


# ---------------------------------------------------------------------------
# Randomized differential testing: SPMD programs of arithmetic,
# (conflicting) memory traffic, barriers, and counted loops.

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

# A counted loop: (trips 1-6, skewed by hart id?, closing branch,
# barrier after?, body).  Its counter and bound live in x10/x11, which
# no operation touches.
block = st.one_of(
    operation,
    st.tuples(
        st.just("loop"),
        st.integers(min_value=1, max_value=6),
        st.booleans(),
        st.sampled_from(["bne", "blt"]),
        st.booleans(),
        st.lists(operation, min_size=1, max_size=6),
    ),
)


def _emit(b, op):
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


def _build_spmd(blocks):
    """An SPMD program; addresses salt with the hart id, and skewed
    loops run ``trips + hartid`` times."""
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(9, 4)
    b.mul(9, 1, 9)  # x9 = 4 * hartid: per-core address salt
    for index, op in enumerate(blocks):
        if op[0] != "loop":
            _emit(b, op)
            continue
        _, trips, skewed, closer, barrier_after, body = op
        if skewed:
            b.csrr_hartid(11)
            b.addi(11, 11, trips)
        else:
            b.li(11, trips)
        b.li(10, 0)
        b.label(f"loop{index}")
        for inner in body:
            _emit(b, inner)
        b.addi(10, 10, 1)
        getattr(b, closer)(10, 11, f"loop{index}")
        if barrier_after:
            b.barrier()
    b.barrier()
    b.halt()
    return b.build()


class TestRandomizedDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        blocks=st.lists(block, min_size=1, max_size=24),
        cores=st.integers(min_value=1, max_value=8),
        scoreboard=st.booleans(),
        hot_icache=st.booleans(),
    )
    def test_random_programs_match(self, blocks, cores, scoreboard,
                                   hot_icache):
        program = _build_spmd(blocks)

        def load(cluster):
            cluster.write_words(0, [(i * 2654435761) & 0xFFFFFFFF
                                    for i in range(128)])
            cluster.load_program(
                program, num_cores=cores, scoreboard=scoreboard,
                hot_icache=hot_icache,
            )

        _diff_clusters(lambda: MemPoolCluster(_config("2D")), load)

"""End-to-end blocked matmul: simulated compute phases + off-chip transfers.

Section VI-A's schedule, executed rather than just modeled: for every
output tile, the cluster alternates a *memory phase* (load one A tile and
one B tile from the bandwidth-limited global memory into the SPM,
synchronize) with a *compute phase* (accumulate the t x t block product
across the cores), then writes the finished C tile back.

Compute phases run on the instruction-level simulator; memory phases are
charged through :class:`repro.simulator.memsys.OffChipMemory` (idealized
latency, fixed bytes/cycle — exactly the paper's model).  The result is
verified against numpy and decomposed like
:class:`repro.kernels.phases.PhaseBreakdown`, so the analytic phase model
can be validated against an actual execution at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.cluster import MemPoolCluster
from ..arch.isa import Program, ProgramBuilder
from ..core.config import MemPoolConfig
from ..simulator.engine import run_cluster
from ..simulator.memsys import OffChipMemory
from .tiling import TilingPlan


@dataclass(frozen=True)
class BlockedMatmulResult:
    """Measured cycle decomposition of an executed blocked matmul."""

    plan: TilingPlan
    memory_cycles: int
    compute_cycles: int
    writeback_cycles: int
    phases: int
    correct: bool

    @property
    def total_cycles(self) -> int:
        """All cycles of the schedule."""
        return self.memory_cycles + self.compute_cycles + self.writeback_cycles

    @property
    def memory_fraction(self) -> float:
        """Share of the runtime spent on off-chip transfers."""
        if not self.total_cycles:
            return 0.0
        return self.memory_cycles / self.total_cycles


def _accumulate_program(t: int, num_cores: int, base_a: int, base_b: int,
                        base_c: int) -> Program:
    """SPMD t x t block product: C += A @ B over SPM-resident tiles.

    Rows are interleaved across cores; the accumulator starts from the
    current C value, implementing the k-loop accumulation across phases.
    """
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, t)
    b.li(17, 4 * t)
    b.li(18, 4)
    b.add(4, 1, 0)  # i = hartid
    b.label("loop_i")
    b.blt(4, 3, "do_i")
    b.j("done")
    b.label("do_i")
    b.li(5, 0)  # j
    b.label("loop_j")
    # acc = C[i][j]
    b.mul(12, 4, 17)
    b.li(13, base_c)
    b.add(12, 12, 13)
    b.mul(13, 5, 18)
    b.add(12, 12, 13)
    b.lw(9, 12, 0)
    b.li(6, 0)  # k
    b.mul(7, 4, 17)
    b.li(13, base_a)
    b.add(7, 7, 13)
    b.mul(8, 5, 18)
    b.li(13, base_b)
    b.add(8, 8, 13)
    b.label("loop_k")
    b.lw_postinc(10, 7, 4)
    b.lw(11, 8, 0)
    b.add(8, 8, 17)
    b.mac(9, 10, 11)
    b.addi(6, 6, 1)
    b.blt(6, 3, "loop_k")
    b.sw(9, 12, 0)
    b.addi(5, 5, 1)
    b.blt(5, 3, "loop_j")
    b.add(4, 4, 2)
    b.j("loop_i")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


def run_blocked_matmul(
    config: MemPoolConfig,
    plan: TilingPlan,
    memory: OffChipMemory,
    num_cores: int = 16,
    seed: int = 23,
    scoreboard: bool = True,
    sim_engine: str = "fast",
) -> BlockedMatmulResult:
    """Execute the full blocked matmul schedule and verify it.

    Args:
        config: Cluster configuration; the three SPM-resident tiles of the
            plan must fit its SPM.
        plan: Tiling plan (small enough to instruction-simulate: total
            MACs are ``M^3``).
        memory: The off-chip channel.
        num_cores: Cores running the compute phases.
        seed: RNG seed for the operand matrices.
        scoreboard: Use the non-blocking-load core model.
        sim_engine: Simulation engine (``"fast"``/``"reference"``,
            bit-identical).

    Returns:
        The measured decomposition and a correctness flag.
    """
    t = plan.tile_size
    m = plan.matrix_dim
    if not plan.fits(config.spm_bytes):
        raise ValueError("tiling plan does not fit this configuration's SPM")

    rng = np.random.default_rng(seed)
    a = rng.integers(-20, 20, size=(m, m), dtype=np.int64)
    b = rng.integers(-20, 20, size=(m, m), dtype=np.int64)
    c = np.zeros((m, m), dtype=np.int64)

    base_a, base_b, base_c = 0, plan.tile_bytes, 2 * plan.tile_bytes
    program = _accumulate_program(t, num_cores, base_a, base_b, base_c)

    memory_cycles = 0
    compute_cycles = 0
    writeback_cycles = 0
    phases = 0
    edge = plan.tiles_per_edge

    for bi in range(edge):
        for bj in range(edge):
            cluster = MemPoolCluster(config)
            cluster.write_words(base_c, [0] * (t * t))
            for bk in range(edge):
                a_tile = a[bi * t:(bi + 1) * t, bk * t:(bk + 1) * t]
                b_tile = b[bk * t:(bk + 1) * t, bj * t:(bj + 1) * t]
                # Memory phase: both input tiles stream in.
                memory_cycles += memory.load(plan.load_bytes_per_phase)
                cluster.write_words(base_a, (a_tile & 0xFFFFFFFF).ravel().tolist())
                cluster.write_words(base_b, (b_tile & 0xFFFFFFFF).ravel().tolist())
                # Compute phase: accumulate on the simulated cluster.
                cluster.load_program(program, num_cores=num_cores, scoreboard=scoreboard)
                result = run_cluster(cluster, engine=sim_engine)
                compute_cycles += result.cycles
                phases += 1
            # Write the finished output tile back.
            writeback_cycles += memory.store(plan.store_bytes_per_output_tile)
            words = cluster.read_words(base_c, t * t)
            block = np.array(words, dtype=np.uint64).reshape(t, t)
            c[bi * t:(bi + 1) * t, bj * t:(bj + 1) * t] = block.astype(np.int64)

    expected = (a @ b) & 0xFFFFFFFF
    correct = bool(((c & 0xFFFFFFFF) == expected).all())
    return BlockedMatmulResult(
        plan=plan,
        memory_cycles=memory_cycles,
        compute_cycles=compute_cycles,
        writeback_cycles=writeback_cycles,
        phases=phases,
        correct=correct,
    )

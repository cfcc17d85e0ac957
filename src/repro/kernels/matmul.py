"""Matrix-multiplication kernels for the cycle-level simulator.

Two SPMD program generators:

* :func:`matmul_program_simple` — straightforward triple loop, one output
  element at a time; readable reference.
* :func:`matmul_program_blocked` — the optimized shape MemPool's kernels
  use: each core produces a 2x2 block of C per inner iteration, sharing
  loaded operands across MACs (4 loads for 4 MACs) with post-incrementing
  pointers.  This is the kernel used to calibrate the phase model's
  effective CPI.

Both operate on n x n row-major 32-bit matrices resident in the SPM, with
rows (or row-blocks) interleaved across cores.  :func:`run_matmul`
simulates a kernel on a cluster and verifies the result against numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.cluster import MemPoolCluster
from ..arch.isa import Program, ProgramBuilder
from ..core.config import MemPoolConfig
from ..simulator.engine import run_cluster
from .phases import PhaseModelParams


@dataclass(frozen=True)
class MatmulLayout:
    """SPM placement of the three operand matrices."""

    n: int
    base_a: int = 0
    base_b: int = -1
    base_c: int = -1

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("matrix dimension must be positive")
        nbytes = self.n * self.n * 4
        if self.base_b < 0:
            object.__setattr__(self, "base_b", self.base_a + nbytes)
        if self.base_c < 0:
            object.__setattr__(self, "base_c", self.base_b + nbytes)

    @property
    def bytes_needed(self) -> int:
        """SPM bytes the three matrices occupy."""
        return self.base_c + self.n * self.n * 4


def matmul_program_simple(layout: MatmulLayout, num_cores: int) -> Program:
    """Reference triple-loop matmul, rows interleaved across cores."""
    if num_cores <= 0:
        raise ValueError("core count must be positive")
    n = layout.n
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, n)
    b.li(17, 4 * n)  # row stride in bytes
    b.li(18, 4)
    b.add(4, 1, 0)  # i = hartid
    b.label("loop_i")
    b.blt(4, 3, "do_i")
    b.j("done")
    b.label("do_i")
    b.li(5, 0)  # j = 0
    b.label("loop_j")
    b.li(9, 0)  # acc = 0
    b.li(6, 0)  # k = 0
    b.mul(7, 4, 17)
    b.li(13, layout.base_a)
    b.add(7, 7, 13)  # ptrA = A + i*n*4
    b.mul(8, 5, 18)
    b.li(13, layout.base_b)
    b.add(8, 8, 13)  # ptrB = B + j*4
    b.label("loop_k")
    b.lw_postinc(10, 7, 4)  # a = *ptrA++, walks row i
    b.lw(11, 8, 0)  # b = B[k][j]
    b.add(8, 8, 17)  # ptrB += n*4, walks column j
    b.mac(9, 10, 11)
    b.addi(6, 6, 1)
    b.blt(6, 3, "loop_k")
    b.mul(12, 4, 17)
    b.li(13, layout.base_c)
    b.add(12, 12, 13)
    b.mul(13, 5, 18)
    b.add(12, 12, 13)
    b.sw(9, 12, 0)  # C[i][j] = acc
    b.addi(5, 5, 1)
    b.blt(5, 3, "loop_j")
    b.add(4, 4, 2)  # i += num_cores
    b.j("loop_i")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


def matmul_program_blocked(layout: MatmulLayout, num_cores: int) -> Program:
    """2x2-blocked matmul: four MACs per four loads in the inner loop.

    Each core owns row *pairs* ``(2*w, 2*w+1)`` for its work items ``w``
    (interleaved across cores) and sweeps columns two at a time.  Inner
    loop per k: load a0 = A[i][k], a1 = A[i+1][k], b0 = B[k][j],
    b1 = B[k][j+1]; accumulate the 2x2 outer product.

    Requires even ``n``.
    """
    if num_cores <= 0:
        raise ValueError("core count must be positive")
    n = layout.n
    if n % 2:
        raise ValueError("blocked kernel requires an even matrix dimension")
    half = n // 2
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, n)
    b.li(17, 4 * n)  # row stride
    b.li(19, half)
    b.add(4, 1, 0)  # w = hartid (row-pair index)
    b.label("loop_i")
    b.blt(4, 19, "do_i")
    b.j("done")
    b.label("do_i")
    b.li(5, 0)  # j = 0 (column pair base)
    b.label("loop_j")
    b.li(9, 0)  # acc00
    b.li(10, 0)  # acc01
    b.li(11, 0)  # acc10
    b.li(12, 0)  # acc11
    b.li(6, 0)  # k = 0
    # ptrA0 = A + (2w)*n*4 ; ptrA1 = ptrA0 + n*4
    b.add(13, 4, 4)  # 2w
    b.mul(7, 13, 17)
    b.li(14, layout.base_a)
    b.add(7, 7, 14)
    b.add(8, 7, 17)
    # ptrB = B + j*4
    b.li(14, 4)
    b.mul(15, 5, 14)
    b.li(14, layout.base_b)
    b.add(15, 15, 14)
    b.label("loop_k")
    b.lw_postinc(20, 7, 4)  # a0
    b.lw_postinc(21, 8, 4)  # a1
    b.lw(22, 15, 0)  # b0
    b.lw(23, 15, 4)  # b1
    b.add(15, 15, 17)  # ptrB += row
    b.mac(9, 20, 22)  # c00 += a0*b0
    b.mac(10, 20, 23)  # c01 += a0*b1
    b.mac(11, 21, 22)  # c10 += a1*b0
    b.mac(12, 21, 23)  # c11 += a1*b1
    b.addi(6, 6, 1)
    b.blt(6, 3, "loop_k")
    # store the 2x2 block of C
    b.add(13, 4, 4)
    b.mul(24, 13, 17)
    b.li(25, layout.base_c)
    b.add(24, 24, 25)  # row 2w of C
    b.li(25, 4)
    b.mul(26, 5, 25)
    b.add(24, 24, 26)  # + j*4
    b.sw(9, 24, 0)
    b.sw(10, 24, 4)
    b.add(24, 24, 17)
    b.sw(11, 24, 0)
    b.sw(12, 24, 4)
    b.addi(5, 5, 2)
    b.blt(5, 3, "loop_j")
    b.add(4, 4, 2)  # w += num_cores
    b.j("loop_i")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


@dataclass(frozen=True)
class MatmulRun:
    """Outcome of a simulated matmul."""

    n: int
    num_cores: int
    cycles: int
    instructions: int
    correct: bool
    cpi_mac: float


def run_matmul(
    config: MemPoolConfig,
    n: int,
    num_cores: int,
    blocked: bool = True,
    seed: int = 7,
    max_cycles: int = 5_000_000,
    scoreboard: bool = False,
    sim_engine: str = "fast",
) -> MatmulRun:
    """Simulate an ``n x n`` matmul on the cluster and verify it.

    Args:
        config: Cluster configuration (sets SPM size).
        n: Matrix dimension; must fit (3 matrices) in the SPM.
        num_cores: Active cores.
        blocked: Use the optimized 2x2-blocked kernel.
        seed: RNG seed for operand data.
        max_cycles: Simulation safety limit.
        scoreboard: Use the non-blocking-load core model (hides SPM
            latency, approaching the paper's ~3-cycle-per-MAC kernels).
        sim_engine: Simulation engine (``"fast"``/``"reference"``,
            bit-identical).

    Returns:
        Cycle count, correctness flag, and measured per-core MAC CPI.
    """
    layout = MatmulLayout(n=n)
    if layout.bytes_needed > config.spm_bytes:
        raise ValueError(
            f"{n}x{n} operands need {layout.bytes_needed} B, "
            f"SPM has {config.spm_bytes} B"
        )
    rng = np.random.default_rng(seed)
    a = rng.integers(-50, 50, size=(n, n), dtype=np.int64)
    b = rng.integers(-50, 50, size=(n, n), dtype=np.int64)
    expected = (a @ b) & 0xFFFFFFFF

    cluster = MemPoolCluster(config)
    cluster.write_words(layout.base_a, (a & 0xFFFFFFFF).ravel().tolist())
    cluster.write_words(layout.base_b, (b & 0xFFFFFFFF).ravel().tolist())

    if blocked:
        program = matmul_program_blocked(layout, num_cores)
    else:
        program = matmul_program_simple(layout, num_cores)
    cluster.load_program(program, num_cores=num_cores, scoreboard=scoreboard)
    result = run_cluster(cluster, max_cycles=max_cycles, engine=sim_engine)

    produced = np.array(
        cluster.read_words(layout.base_c, n * n), dtype=np.uint64
    ).reshape(n, n)
    correct = bool((produced == expected.astype(np.uint64)).all())

    total_macs = n**3
    cpi_mac = result.cycles * num_cores / total_macs
    return MatmulRun(
        n=n,
        num_cores=num_cores,
        cycles=result.cycles,
        instructions=result.instructions,
        correct=correct,
        cpi_mac=cpi_mac,
    )


def calibrate_from_simulation(
    config: MemPoolConfig,
    n: int = 32,
    num_cores: int = 16,
    phase_overhead_cycles: float = 10_000.0,
) -> PhaseModelParams:
    """Derive phase-model parameters from a cycle-level simulation.

    Runs the blocked kernel on a small matrix and uses the measured
    per-core MAC CPI for the phase model's compute coefficient.  The
    phase (barrier) overhead is retained from its default — it scales with
    the 256-core cluster's barrier latency, which small runs underestimate.

    Raises:
        RuntimeError: If the simulated kernel produced a wrong result
            (calibration from a broken kernel would be meaningless).
    """
    run = run_matmul(config, n=n, num_cores=num_cores, blocked=True)
    if not run.correct:
        raise RuntimeError("calibration matmul produced incorrect results")
    return PhaseModelParams(
        cpi_mac=run.cpi_mac,
        phase_overhead_cycles=phase_overhead_cycles,
        num_cores=config.arch.num_cores,
    )

"""Phase-level cycle model of the blocked matmul (Figure 6's engine).

The paper measures cycle counts through cycle-accurate RTL simulation of
the full 256-core cluster.  Instruction-simulating the paper's M = 326400
matmul (3.5e16 MACs) is infeasible in any software simulator, so — exactly
like the paper's own analysis — the cycle count is assembled from the
phase decomposition of Section VI-A:

* a **memory phase** loads one A tile and one B tile from global memory
  through the bandwidth-limited off-chip channel, then synchronizes;
* a **compute phase** runs the t x t x t block product across the 256
  cores with a hot instruction cache;
* phases repeat M/t times per output tile and (M/t)^2 output tiles,
  with a C-tile write-back per output tile.

Cycle model per phase pair::

    mem_cycles     = load_bytes / bandwidth
    compute_cycles = t^3 * cpi_mac / num_cores
    static         = phase_overhead          (barriers, loop setup)

The two free parameters default to values that reproduce the paper's
reported speedups (43 % for 8 MiB over 1 MiB at 4 B/cycle, 16 % at
16 B/cycle, 8 % at 64 B/cycle): ``cpi_mac = 2.9`` and
``phase_overhead = 10_000`` cycles.  Every evaluation tier serves
matmul through this model with the scenario's ``cpi_mac``; the CPI a
simulated blocked matmul measures
(:attr:`repro.kernels.matmul.MatmulRun.cpi_mac`) enters only as such a
setting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulator.memsys import OffChipMemory
from .tiling import TilingPlan


@dataclass(frozen=True)
class PhaseModelParams:
    """Calibrated parameters of the phase-level cycle model.

    Attributes:
        cpi_mac: Effective cycles per multiply-accumulate per core during
            the compute phase, including loads from the SPM, address
            arithmetic, and loop control of the optimized kernel.
        phase_overhead_cycles: Static cycles per phase pair: the full
            cluster barrier after the memory phase, loop prologue, and
            work-distribution arithmetic.
        num_cores: Cores participating in the compute phase.
    """

    cpi_mac: float = 2.9
    phase_overhead_cycles: float = 10_000.0
    num_cores: int = 256

    def __post_init__(self) -> None:
        if self.cpi_mac <= 0:
            raise ValueError("CPI must be positive")
        if self.phase_overhead_cycles < 0:
            raise ValueError("phase overhead must be non-negative")
        if self.num_cores <= 0:
            raise ValueError("core count must be positive")


DEFAULT_PHASE_PARAMS = PhaseModelParams()


@dataclass(frozen=True)
class PhaseBreakdown:
    """Cycle totals of a full blocked matmul."""

    memory_cycles: float
    compute_cycles: float
    overhead_cycles: float
    writeback_cycles: float

    @property
    def total(self) -> float:
        """Total kernel cycles."""
        return (
            self.memory_cycles
            + self.compute_cycles
            + self.overhead_cycles
            + self.writeback_cycles
        )

    @property
    def memory_fraction(self) -> float:
        """Share of the runtime spent in memory phases."""
        total = self.total
        return self.memory_cycles / total if total else 0.0


def matmul_cycles(
    plan: TilingPlan,
    memory: OffChipMemory,
    params: PhaseModelParams = DEFAULT_PHASE_PARAMS,
) -> PhaseBreakdown:
    """Cycle count of the blocked matmul under the phase model.

    Args:
        plan: The tiling schedule (matrix size, tile size).
        memory: The off-chip channel (sets the bandwidth).
        params: Calibrated model parameters.

    Returns:
        Per-component cycle totals.
    """
    phases = plan.total_phases
    mem_per_phase = memory.transfer_cycles(plan.load_bytes_per_phase)
    compute_per_phase = plan.macs_per_phase * params.cpi_mac / params.num_cores
    writeback = plan.output_tiles * memory.transfer_cycles(
        plan.store_bytes_per_output_tile
    )
    return PhaseBreakdown(
        memory_cycles=float(phases * mem_per_phase),
        compute_cycles=phases * compute_per_phase,
        overhead_cycles=phases * params.phase_overhead_cycles,
        writeback_cycles=float(writeback),
    )


def speedup(baseline_cycles: float, cycles: float) -> float:
    """Cycle-count speedup of ``cycles`` over ``baseline_cycles`` (1.0 = equal)."""
    if cycles <= 0 or baseline_cycles <= 0:
        raise ValueError("cycle counts must be positive")
    return baseline_cycles / cycles


# ---------------------------------------------------------------------------
# Extension: double-buffered scheduling.
#
# The paper's schedule serializes memory and compute phases.  The classic
# improvement is double buffering: while the cores compute on one pair of
# input tiles, the next pair streams in.  The cost is SPM capacity — five
# tiles must be resident (two A, two B, one C) instead of three — so the
# tile edge shrinks by sqrt(3/5) and every input element is re-loaded more
# often.  Whether the overlap wins depends on the bandwidth: when memory
# phases dominate (low bandwidth), hiding them behind compute wins big;
# when compute dominates, the smaller tile's extra traffic can lose.

#: Tiles resident under double buffering: A/A', B/B', C.
DOUBLE_BUFFER_TILES = 5


def double_buffered_cycles(
    plan: TilingPlan,
    memory: OffChipMemory,
    params: PhaseModelParams = DEFAULT_PHASE_PARAMS,
) -> PhaseBreakdown:
    """Cycle count of the matmul with overlapped memory/compute phases.

    ``plan`` must already use a tile size whose *five*-tile working set
    fits the SPM (use :func:`double_buffered_plan`).  Per phase pair the
    cost is ``max(memory, compute) + overhead``; the first memory phase
    of each output tile cannot be hidden.

    The breakdown reports the *exposed* memory cycles (what remains on
    the critical path after overlap).
    """
    phases = plan.total_phases
    mem_per_phase = memory.transfer_cycles(plan.load_bytes_per_phase)
    compute_per_phase = plan.macs_per_phase * params.cpi_mac / params.num_cores
    exposed_mem = max(0.0, mem_per_phase - compute_per_phase) * phases
    # One cold memory phase per output tile (nothing to overlap with).
    exposed_mem += plan.output_tiles * min(mem_per_phase, compute_per_phase)
    compute_total = phases * compute_per_phase
    writeback = plan.output_tiles * memory.transfer_cycles(
        plan.store_bytes_per_output_tile
    )
    return PhaseBreakdown(
        memory_cycles=exposed_mem,
        compute_cycles=compute_total,
        overhead_cycles=phases * params.phase_overhead_cycles,
        writeback_cycles=float(writeback),
    )


def double_buffered_plan(
    matrix_dim: int, spm_bytes: int, word_bytes: int = 4, granularity: int = 8
) -> TilingPlan:
    """Largest tiling whose five-tile working set fits ``spm_bytes``.

    The tile edge must also divide ``matrix_dim``; the largest aligned
    divisor under the capacity bound is chosen.
    """
    import math

    if matrix_dim <= 0 or spm_bytes <= 0:
        raise ValueError("dimension and capacity must be positive")
    limit = math.isqrt(spm_bytes // (DOUBLE_BUFFER_TILES * word_bytes))
    best = None
    for t in range(granularity, limit + 1, granularity):
        if matrix_dim % t == 0:
            best = t
    if best is None:
        raise ValueError("no aligned tile size divides the matrix under the bound")
    return TilingPlan(matrix_dim=matrix_dim, tile_size=best, word_bytes=word_bytes)

"""Additional DSP workloads for MemPool's target domain.

The paper's introduction motivates MemPool with digital-signal-processing
workloads; matmul is its representative kernel.  These extra kernels
(dot product, AXPY, 2D convolution) exercise the same public API in the
examples and broaden the simulator's test coverage.  Each provides an
SPMD program generator and a verified runner, and the bottom of the
module registers every kernel — plus the analytic blocked matmul — as a
scenario-level workload plugin for :class:`repro.api.Pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..api.registry import register_workload
from ..arch.cluster import MemPoolCluster
from ..arch.isa import Program, ProgramBuilder
from ..core.config import MemPoolConfig
from ..simulator.engine import run_cluster
from . import phases


@dataclass(frozen=True)
class WorkloadRun:
    """Outcome of a simulated workload."""

    name: str
    cycles: int
    instructions: int
    correct: bool


#: Second half of a prepare/finish pair: maps the simulation result of
#: the prepared cluster to the verified :class:`WorkloadRun`.
FinishFn = Callable[[object], WorkloadRun]


def _new_cluster(config: MemPoolConfig) -> MemPoolCluster:
    """The empty cluster a ``prepare_*`` kernel fills.

    The fast simulator is imported first: a module first imported while
    a cluster is alive allocates among the cluster's objects, so the
    process could not hand those pages back once the cluster is freed.
    """
    from ..simulator import fast  # noqa: F401

    return MemPoolCluster(config)


def dotp_program(
    num_elements: int, num_cores: int, base_a: int, base_b: int, base_out: int
) -> Program:
    """Dot product with per-core partial sums.

    Each core accumulates its interleaved share and stores the partial sum
    to ``base_out + 4 * hartid``; the host sums the partials (MemPool's
    kernels do a log-tree reduction — the partial-store variant keeps the
    program simple while exercising the same access pattern).
    """
    if num_elements <= 0 or num_cores <= 0:
        raise ValueError("element and core counts must be positive")
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, num_elements)
    b.li(4, 4)
    b.li(9, 0)  # acc
    b.add(5, 1, 0)  # i = hartid
    b.label("loop")
    b.blt(5, 3, "body")
    b.j("done")
    b.label("body")
    b.mul(20, 5, 4)
    b.li(21, base_a)
    b.add(21, 21, 20)
    b.lw(22, 21, 0)
    b.li(23, base_b)
    b.add(23, 23, 20)
    b.lw(24, 23, 0)
    b.mac(9, 22, 24)
    b.add(5, 5, 2)
    b.j("loop")
    b.label("done")
    b.mul(20, 1, 4)
    b.li(21, base_out)
    b.add(21, 21, 20)
    b.sw(9, 21, 0)
    b.barrier()
    b.halt()
    return b.build()


def axpy_program(
    num_elements: int, num_cores: int, scalar: int, base_x: int, base_y: int
) -> Program:
    """AXPY: ``y[i] += scalar * x[i]``, interleaved across cores."""
    if num_elements <= 0 or num_cores <= 0:
        raise ValueError("element and core counts must be positive")
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, num_elements)
    b.li(4, 4)
    b.li(9, scalar)
    b.add(5, 1, 0)
    b.label("loop")
    b.blt(5, 3, "body")
    b.j("done")
    b.label("body")
    b.mul(20, 5, 4)
    b.li(21, base_x)
    b.add(21, 21, 20)
    b.lw(22, 21, 0)  # x[i]
    b.li(23, base_y)
    b.add(23, 23, 20)
    b.lw(24, 23, 0)  # y[i]
    b.mac(24, 9, 22)  # y += a*x
    b.sw(24, 23, 0)
    b.add(5, 5, 2)
    b.j("loop")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


def conv2d_3x3_program(
    width: int,
    height: int,
    num_cores: int,
    base_in: int,
    base_kernel: int,
    base_out: int,
) -> Program:
    """3x3 valid convolution; output rows interleaved across cores.

    Output is ``(height - 2) x (width - 2)``.  The 3x3 kernel is loaded
    from the SPM once per output row (registers 20..28 hold the taps).
    """
    if width < 3 or height < 3:
        raise ValueError("input must be at least 3x3")
    if num_cores <= 0:
        raise ValueError("core count must be positive")
    out_h, out_w = height - 2, width - 2
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, out_h)
    b.li(17, 4 * width)  # input row stride
    b.li(18, 4 * out_w)  # output row stride
    b.add(4, 1, 0)  # r = hartid
    b.label("loop_r")
    b.blt(4, 3, "do_r")
    b.j("done")
    b.label("do_r")
    # load kernel taps into x20..x28
    b.li(19, base_kernel)
    for tap in range(9):
        b.lw(20 + tap, 19, 4 * tap)
    b.li(5, 0)  # c = 0
    b.label("loop_c")
    b.li(9, 0)  # acc
    # input pointer = base_in + (r*width + c)*4
    b.mul(6, 4, 17)
    b.li(7, base_in)
    b.add(6, 6, 7)
    b.li(7, 4)
    b.mul(8, 5, 7)
    b.add(6, 6, 8)
    for row in range(3):
        for col in range(3):
            b.lw(10, 6, 4 * col)
            b.mac(9, 10, 20 + 3 * row + col)
        if row < 2:
            b.add(6, 6, 17)
    # store output[r][c]
    b.mul(11, 4, 18)
    b.li(12, base_out)
    b.add(11, 11, 12)
    b.li(12, 4)
    b.mul(13, 5, 12)
    b.add(11, 11, 13)
    b.sw(9, 11, 0)
    b.addi(5, 5, 1)
    b.li(14, out_w)
    b.blt(5, 14, "loop_c")
    b.add(4, 4, 2)
    b.j("loop_r")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


def matvec_program(
    rows: int, cols: int, num_cores: int, base_m: int, base_x: int, base_y: int
) -> Program:
    """Matrix-vector product ``y = M @ x``; rows interleaved across cores."""
    if rows <= 0 or cols <= 0 or num_cores <= 0:
        raise ValueError("dimensions and core count must be positive")
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, rows)
    b.li(16, cols)
    b.li(17, 4 * cols)  # row stride
    b.add(4, 1, 0)  # r = hartid
    b.label("loop_r")
    b.blt(4, 3, "do_r")
    b.j("done")
    b.label("do_r")
    b.li(9, 0)  # acc
    b.mul(7, 4, 17)
    b.li(13, base_m)
    b.add(7, 7, 13)  # row pointer
    b.li(8, base_x)  # vector pointer
    b.li(6, 0)
    b.label("loop_c")
    b.lw_postinc(10, 7, 4)
    b.lw_postinc(11, 8, 4)
    b.mac(9, 10, 11)
    b.addi(6, 6, 1)
    b.blt(6, 16, "loop_c")
    b.li(13, 4)
    b.mul(12, 4, 13)
    b.li(13, base_y)
    b.add(12, 12, 13)
    b.sw(9, 12, 0)
    b.add(4, 4, 2)
    b.j("loop_r")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


def stencil5_program(
    width: int, height: int, num_cores: int, base_in: int, base_out: int
) -> Program:
    """5-point stencil: ``out = 4*c - n - s - e - w`` on interior points.

    Output is ``(height - 2) x (width - 2)``; interior rows interleave
    across cores.  A discrete Laplacian — the classic DSP/PDE kernel.
    """
    if width < 3 or height < 3 or num_cores <= 0:
        raise ValueError("image must be at least 3x3 with positive cores")
    out_h, out_w = height - 2, width - 2
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, out_h)
    b.li(17, 4 * width)
    b.li(18, 4 * out_w)
    b.li(19, 4)
    b.add(4, 1, 0)  # r
    b.label("loop_r")
    b.blt(4, 3, "do_r")
    b.j("done")
    b.label("do_r")
    b.li(5, 0)  # c
    b.label("loop_c")
    # center pointer = base_in + ((r+1)*width + (c+1)) * 4
    b.addi(6, 4, 1)
    b.mul(6, 6, 17)
    b.li(7, base_in)
    b.add(6, 6, 7)
    b.addi(7, 5, 1)
    b.mul(7, 7, 19)
    b.add(6, 6, 7)
    b.lw(9, 6, 0)  # center
    b.add(9, 9, 9)
    b.add(9, 9, 9)  # 4 * center
    b.lw(10, 6, -4)  # west
    b.sub(9, 9, 10)
    b.lw(10, 6, 4)  # east
    b.sub(9, 9, 10)
    b.sub(11, 6, 17)
    b.lw(10, 11, 0)  # north
    b.sub(9, 9, 10)
    b.add(11, 6, 17)
    b.lw(10, 11, 0)  # south
    b.sub(9, 9, 10)
    # out[r][c]
    b.mul(12, 4, 18)
    b.li(13, base_out)
    b.add(12, 12, 13)
    b.mul(13, 5, 19)
    b.add(12, 12, 13)
    b.sw(9, 12, 0)
    b.addi(5, 5, 1)
    b.li(14, out_w)
    b.blt(5, 14, "loop_c")
    b.add(4, 4, 2)
    b.j("loop_r")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


def prepare_matvec(
    config: MemPoolConfig,
    rows: int,
    cols: int,
    num_cores: int,
    seed: int = 19,
) -> tuple[MemPoolCluster, "FinishFn"]:
    """Loaded cluster for a matrix-vector product, plus its verifier."""
    import numpy as np

    rng = np.random.default_rng(seed)
    m = rng.integers(-30, 30, size=(rows, cols), dtype=np.int64)
    x = rng.integers(-30, 30, size=cols, dtype=np.int64)
    base_m = 0
    base_x = 4 * rows * cols
    base_y = base_x + 4 * cols

    cluster = _new_cluster(config)
    cluster.write_words(base_m, (m & 0xFFFFFFFF).ravel().tolist())
    cluster.write_words(base_x, (x & 0xFFFFFFFF).tolist())
    cluster.load_program(
        matvec_program(rows, cols, num_cores, base_m, base_x, base_y),
        num_cores=num_cores,
    )

    def finish(result) -> WorkloadRun:
        produced = np.array(cluster.read_words(base_y, rows), dtype=np.uint64)
        expected = ((m @ x) & 0xFFFFFFFF).astype(np.uint64)
        correct = bool((produced == expected).all())
        return WorkloadRun(
            "matvec", result.cycles, result.instructions, correct
        )

    return cluster, finish


def run_matvec(
    config: MemPoolConfig,
    rows: int,
    cols: int,
    num_cores: int,
    seed: int = 19,
    sim_engine: str = "fast",
) -> WorkloadRun:
    """Simulate and verify a matrix-vector product."""
    cluster, finish = prepare_matvec(config, rows, cols, num_cores, seed)
    return finish(run_cluster(cluster, engine=sim_engine))


def prepare_stencil5(
    config: MemPoolConfig,
    width: int,
    height: int,
    num_cores: int,
    seed: int = 29,
) -> tuple[MemPoolCluster, "FinishFn"]:
    """Loaded cluster for a 5-point stencil, plus its verifier."""
    import numpy as np

    rng = np.random.default_rng(seed)
    image = rng.integers(-50, 50, size=(height, width), dtype=np.int64)
    out_h, out_w = height - 2, width - 2
    base_in = 0
    base_out = 4 * width * height

    interior = image[1:-1, 1:-1]
    expected = (
        4 * interior
        - image[:-2, 1:-1]
        - image[2:, 1:-1]
        - image[1:-1, :-2]
        - image[1:-1, 2:]
    )

    cluster = _new_cluster(config)
    cluster.write_words(base_in, (image & 0xFFFFFFFF).ravel().tolist())
    cluster.load_program(
        stencil5_program(width, height, num_cores, base_in, base_out),
        num_cores=num_cores,
    )

    def finish(result) -> WorkloadRun:
        produced = np.array(
            cluster.read_words(base_out, out_h * out_w), dtype=np.uint64
        ).reshape(out_h, out_w)
        correct = bool(
            (produced == (expected & 0xFFFFFFFF).astype(np.uint64)).all()
        )
        return WorkloadRun(
            "stencil5", result.cycles, result.instructions, correct
        )

    return cluster, finish


def run_stencil5(
    config: MemPoolConfig,
    width: int,
    height: int,
    num_cores: int,
    seed: int = 29,
    sim_engine: str = "fast",
) -> WorkloadRun:
    """Simulate and verify a 5-point Laplacian stencil."""
    cluster, finish = prepare_stencil5(config, width, height, num_cores, seed)
    return finish(run_cluster(cluster, engine=sim_engine))


def prepare_dotp(
    config: MemPoolConfig,
    num_elements: int,
    num_cores: int,
    seed: int = 11,
) -> tuple[MemPoolCluster, "FinishFn"]:
    """Loaded cluster for a dot product, plus its verifier."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.integers(-100, 100, size=num_elements, dtype=np.int64)
    b = rng.integers(-100, 100, size=num_elements, dtype=np.int64)
    base_a, base_b = 0, 4 * num_elements
    base_out = 8 * num_elements

    cluster = _new_cluster(config)
    cluster.write_words(base_a, (a & 0xFFFFFFFF).tolist())
    cluster.write_words(base_b, (b & 0xFFFFFFFF).tolist())
    cluster.load_program(
        dotp_program(num_elements, num_cores, base_a, base_b, base_out),
        num_cores=num_cores,
    )

    def finish(result) -> WorkloadRun:
        partials = cluster.read_words(base_out, num_cores)
        total = sum(
            p - 0x100000000 if p & 0x80000000 else p for p in partials
        )
        correct = (total & 0xFFFFFFFF) == (int(a @ b) & 0xFFFFFFFF)
        return WorkloadRun(
            "dotp", result.cycles, result.instructions, correct
        )

    return cluster, finish


def run_dotp(
    config: MemPoolConfig,
    num_elements: int,
    num_cores: int,
    seed: int = 11,
    sim_engine: str = "fast",
) -> WorkloadRun:
    """Simulate and verify a dot product."""
    cluster, finish = prepare_dotp(config, num_elements, num_cores, seed)
    return finish(run_cluster(cluster, engine=sim_engine))


def prepare_axpy(
    config: MemPoolConfig,
    num_elements: int,
    num_cores: int,
    scalar: int = 3,
    seed: int = 13,
) -> tuple[MemPoolCluster, "FinishFn"]:
    """Loaded cluster for an AXPY, plus its verifier."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, size=num_elements, dtype=np.int64)
    y = rng.integers(-100, 100, size=num_elements, dtype=np.int64)
    base_x, base_y = 0, 4 * num_elements

    cluster = _new_cluster(config)
    cluster.write_words(base_x, (x & 0xFFFFFFFF).tolist())
    cluster.write_words(base_y, (y & 0xFFFFFFFF).tolist())
    cluster.load_program(
        axpy_program(num_elements, num_cores, scalar, base_x, base_y),
        num_cores=num_cores,
    )

    def finish(result) -> WorkloadRun:
        produced = np.array(
            cluster.read_words(base_y, num_elements), dtype=np.uint64
        )
        expected = ((y + scalar * x) & 0xFFFFFFFF).astype(np.uint64)
        correct = bool((produced == expected).all())
        return WorkloadRun(
            "axpy", result.cycles, result.instructions, correct
        )

    return cluster, finish


def run_axpy(
    config: MemPoolConfig,
    num_elements: int,
    num_cores: int,
    scalar: int = 3,
    seed: int = 13,
    sim_engine: str = "fast",
) -> WorkloadRun:
    """Simulate and verify an AXPY."""
    cluster, finish = prepare_axpy(
        config, num_elements, num_cores, scalar, seed
    )
    return finish(run_cluster(cluster, engine=sim_engine))


def prepare_conv2d(
    config: MemPoolConfig,
    width: int,
    height: int,
    num_cores: int,
    seed: int = 17,
) -> tuple[MemPoolCluster, "FinishFn"]:
    """Loaded cluster for a 3x3 convolution, plus its verifier."""
    import numpy as np

    rng = np.random.default_rng(seed)
    image = rng.integers(-20, 20, size=(height, width), dtype=np.int64)
    kernel = rng.integers(-5, 5, size=(3, 3), dtype=np.int64)
    out_h, out_w = height - 2, width - 2
    base_in = 0
    base_kernel = 4 * width * height
    base_out = base_kernel + 4 * 9

    expected = np.zeros((out_h, out_w), dtype=np.int64)
    for dr in range(3):
        for dc in range(3):
            expected += kernel[dr, dc] * image[dr : dr + out_h, dc : dc + out_w]

    cluster = _new_cluster(config)
    cluster.write_words(base_in, (image & 0xFFFFFFFF).ravel().tolist())
    cluster.write_words(base_kernel, (kernel & 0xFFFFFFFF).ravel().tolist())
    cluster.load_program(
        conv2d_3x3_program(width, height, num_cores, base_in, base_kernel, base_out),
        num_cores=num_cores,
    )

    def finish(result) -> WorkloadRun:
        produced = np.array(
            cluster.read_words(base_out, out_h * out_w), dtype=np.uint64
        ).reshape(out_h, out_w)
        correct = bool(
            (produced == (expected & 0xFFFFFFFF).astype(np.uint64)).all()
        )
        return WorkloadRun(
            "conv2d", result.cycles, result.instructions, correct
        )

    return cluster, finish


def run_conv2d(
    config: MemPoolConfig,
    width: int,
    height: int,
    num_cores: int,
    seed: int = 17,
    sim_engine: str = "fast",
) -> WorkloadRun:
    """Simulate and verify a 3x3 valid convolution."""
    cluster, finish = prepare_conv2d(config, width, height, num_cores, seed)
    return finish(run_cluster(cluster, engine=sim_engine))


# ---------------------------------------------------------------------------
# Scenario-level workload plugins (repro.api registry).
#
# A workload plugin maps a Scenario to a kernel cycle count.  "matmul" is
# the paper's analytic phase model (kernels/phases.py); the rest run the
# cycle-level simulator at the scenario's problem size and verify the
# result before reporting cycles, so they are only tractable at small
# matrix_dim values.

#: Largest scenario ``matrix_dim`` the 1D simulator-backed workloads accept.
SIM_ELEMENT_LIMIT = 1 << 16

#: Largest scenario ``matrix_dim`` the 2D simulator-backed workloads accept.
SIM_GRID_LIMIT = 192


def _sim_dim(scenario, limit: int, minimum: int = 1) -> int:
    """The scenario's problem dimension, bounds-checked for simulation."""
    dim = scenario.matrix_dim
    if dim > limit:
        raise ValueError(
            f"workload {scenario.workload!r} runs on the cycle-level "
            f"simulator; matrix_dim must be <= {limit} (got {dim})"
        )
    if dim < minimum:
        raise ValueError(
            f"workload {scenario.workload!r} needs matrix_dim >= {minimum}"
        )
    return dim


def _sim_cores(scenario, dim: int) -> int:
    """Participating cores: the scenario's, capped by available work."""
    return max(1, min(scenario.num_cores, dim))


def _verified_cycles(run: WorkloadRun) -> float:
    """The run's cycle count, provided it verified against numpy."""
    if not run.correct:
        raise RuntimeError(f"workload {run.name!r} failed verification")
    return float(run.cycles)


@register_workload("matmul")
def matmul_workload(scenario) -> float:
    """Analytic phase-model cycles for the paper's blocked matmul."""
    return phases.matmul_cycles(
        scenario.tiling(), scenario.memory(), scenario.phase_params()
    ).total


@register_workload("dotp")
def dotp_workload(scenario) -> float:
    """Simulated, verified dot product over ``matrix_dim`` elements."""
    n = _sim_dim(scenario, SIM_ELEMENT_LIMIT)
    run = run_dotp(scenario.to_config(), n, _sim_cores(scenario, n))
    return _verified_cycles(run)


@register_workload("axpy")
def axpy_workload(scenario) -> float:
    """Simulated, verified AXPY over ``matrix_dim`` elements."""
    n = _sim_dim(scenario, SIM_ELEMENT_LIMIT)
    run = run_axpy(scenario.to_config(), n, _sim_cores(scenario, n))
    return _verified_cycles(run)


@register_workload("conv2d")
def conv2d_workload(scenario) -> float:
    """Simulated, verified 3x3 convolution on a square image."""
    n = _sim_dim(scenario, SIM_GRID_LIMIT, minimum=3)
    run = run_conv2d(scenario.to_config(), n, n, _sim_cores(scenario, n - 2))
    return _verified_cycles(run)


@register_workload("matvec")
def matvec_workload(scenario) -> float:
    """Simulated, verified square matrix-vector product."""
    n = _sim_dim(scenario, SIM_GRID_LIMIT)
    run = run_matvec(scenario.to_config(), n, n, _sim_cores(scenario, n))
    return _verified_cycles(run)


@register_workload("stencil5")
def stencil5_workload(scenario) -> float:
    """Simulated, verified 5-point Laplacian stencil on a square image."""
    n = _sim_dim(scenario, SIM_GRID_LIMIT, minimum=3)
    run = run_stencil5(scenario.to_config(), n, n, _sim_cores(scenario, n - 2))
    return _verified_cycles(run)


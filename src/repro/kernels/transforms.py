"""Data-movement kernels: transpose and log-tree reduction.

Two kernels that stress exactly the parts of MemPool the matmul does not:

* **transpose** — strided writes produce the worst-case bank-conflict
  pattern on an interleaved SPM, making it the natural probe for the
  single-port-bank arbitration;
* **tree reduction** — a log2(cores)-depth parallel sum with a cluster
  barrier per level, probing the barrier machinery and remote traffic.
"""

from __future__ import annotations

import math

from ..arch.cluster import MemPoolCluster
from ..arch.isa import Program, ProgramBuilder
from ..core.config import MemPoolConfig
from ..simulator.engine import run_cluster
from ..simulator.trace import collect_trace
from .workloads import WorkloadRun


def transpose_program(
    n: int, num_cores: int, base_in: int, base_out: int
) -> Program:
    """Transpose an n x n matrix: ``out[j][i] = in[i][j]``.

    Rows are interleaved across cores; each core reads its row
    sequentially and writes a column of the output — the column writes
    stride by ``4 * n`` bytes, which lands consecutive writes in the same
    bank whenever ``n`` is a multiple of the bank count.
    """
    if n <= 0 or num_cores <= 0:
        raise ValueError("dimension and core count must be positive")
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, n)
    b.li(17, 4 * n)
    b.li(18, 4)
    b.add(4, 1, 0)  # i = hartid
    b.label("loop_i")
    b.blt(4, 3, "do_i")
    b.j("done")
    b.label("do_i")
    # read pointer: in + i*n*4 (walks row i)
    b.mul(7, 4, 17)
    b.li(13, base_in)
    b.add(7, 7, 13)
    # write pointer: out + i*4 (walks column i, stride n*4)
    b.mul(8, 4, 18)
    b.li(13, base_out)
    b.add(8, 8, 13)
    b.li(5, 0)
    b.label("loop_j")
    b.lw_postinc(9, 7, 4)
    b.sw(9, 8, 0)
    b.add(8, 8, 17)
    b.addi(5, 5, 1)
    b.blt(5, 3, "loop_j")
    b.add(4, 4, 2)
    b.j("loop_i")
    b.label("done")
    b.barrier()
    b.halt()
    return b.build()


def reduction_program(
    num_elements: int, num_cores: int, base_data: int, base_partials: int
) -> Program:
    """Log-tree sum of ``num_elements`` words into ``partials[0]``.

    Phase 1: each core accumulates its interleaved share into
    ``partials[hartid]``.  Phase 2: log2(cores) combining levels, each
    separated by a cluster barrier; at level ``s`` cores with
    ``hartid % 2s == 0`` add ``partials[hartid + s]`` into their own.

    Requires a power-of-two core count.
    """
    if num_elements <= 0 or num_cores <= 0:
        raise ValueError("element and core counts must be positive")
    if num_cores & (num_cores - 1):
        raise ValueError("tree reduction needs a power-of-two core count")
    b = ProgramBuilder()
    b.csrr_hartid(1)
    b.li(2, num_cores)
    b.li(3, num_elements)
    b.li(18, 4)
    # Phase 1: local partial sums.
    b.li(9, 0)
    b.add(5, 1, 0)
    b.label("loop")
    b.blt(5, 3, "body")
    b.j("store_partial")
    b.label("body")
    b.mul(20, 5, 18)
    b.li(21, base_data)
    b.add(21, 21, 20)
    b.lw(22, 21, 0)
    b.add(9, 9, 22)
    b.add(5, 5, 2)
    b.j("loop")
    b.label("store_partial")
    b.mul(20, 1, 18)
    b.li(21, base_partials)
    b.add(21, 21, 20)
    b.sw(9, 21, 0)
    # Phase 2: combining tree, one barrier per level.
    levels = int(math.log2(num_cores))
    for level in range(levels):
        stride = 1 << level
        mask = (stride << 1) - 1
        b.barrier()
        # if hartid % (2 * stride) != 0: skip this level's add
        b.li(23, mask)
        # hartid & mask via successive subtraction is clumsy; compute
        # hartid % (2*stride) by masking with multiply/divide-free trick:
        # r = hartid - (hartid / m) * m is unavailable (no div), so use
        # the identity for powers of two: keep a pre-shifted copy.
        b.li(24, stride << 1)
        # q = hartid with low bits cleared: repeated subtraction emulation
        # is avoided by exploiting that cores know their id statically is
        # not possible in SPMD; instead compare hartid's low bits by
        # checking hartid - (hartid // 2s * 2s) via mul of reciprocal is
        # unavailable -> use iterative subtraction (few iterations: ids
        # are < num_cores).
        b.add(25, 1, 0)
        b.label(f"mod_{level}")
        b.blt(25, 24, f"mod_done_{level}")
        b.sub(25, 25, 24)
        b.j(f"mod_{level}")
        b.label(f"mod_done_{level}")
        b.li(26, 0)
        b.bne(25, 26, f"skip_{level}")
        # partials[hartid] += partials[hartid + stride]
        b.addi(27, 1, stride)
        b.blt(27, 2, f"in_range_{level}")
        b.j(f"skip_{level}")
        b.label(f"in_range_{level}")
        b.mul(20, 27, 18)
        b.li(21, base_partials)
        b.add(21, 21, 20)
        b.lw(22, 21, 0)
        b.mul(20, 1, 18)
        b.li(21, base_partials)
        b.add(21, 21, 20)
        b.lw(28, 21, 0)
        b.add(28, 28, 22)
        b.sw(28, 21, 0)
        b.label(f"skip_{level}")
    b.barrier()
    b.halt()
    return b.build()


def run_transpose(
    config: MemPoolConfig, n: int, num_cores: int, seed: int = 31
) -> tuple[WorkloadRun, float]:
    """Simulate a transpose; returns the run and the bank-conflict rate."""
    import numpy as np

    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 1 << 16, size=(n, n), dtype=np.int64)
    base_in, base_out = 0, 4 * n * n

    cluster = MemPoolCluster(config)
    cluster.write_words(base_in, [int(v) for v in matrix.flat])
    cluster.load_program(
        transpose_program(n, num_cores, base_in, base_out), num_cores=num_cores
    )
    result = run_cluster(cluster)
    produced = np.array(cluster.read_words(base_out, n * n), dtype=np.int64)
    correct = bool((produced.reshape(n, n) == matrix.T).all())
    trace = collect_trace(cluster, result.cycles)
    run = WorkloadRun("transpose", result.cycles, result.instructions, correct)
    return run, trace.conflict_rate


def run_reduction(
    config: MemPoolConfig, num_elements: int, num_cores: int, seed: int = 37
) -> tuple[WorkloadRun, int]:
    """Simulate a tree reduction; returns the run and barrier episodes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1000, size=num_elements, dtype=np.int64)
    base_data = 0
    base_partials = 4 * num_elements

    cluster = MemPoolCluster(config)
    cluster.write_words(base_data, [int(v) for v in data])
    cluster.write_words(base_partials, [0] * num_cores)
    cluster.load_program(
        reduction_program(num_elements, num_cores, base_data, base_partials),
        num_cores=num_cores,
    )
    result = run_cluster(cluster)
    total = cluster.read_words(base_partials, 1)[0]
    correct = total == int(data.sum()) & 0xFFFFFFFF
    run = WorkloadRun("reduction", result.cycles, result.instructions, correct)
    return run, cluster.barrier.episodes

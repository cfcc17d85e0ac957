"""Kernel library: tiled matmul, phase model, and DSP workloads.

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.  So the
closed-form phase model (:mod:`~repro.kernels.phases`) loads without
numpy or the simulator, which the simulated kernels import on first use.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "blocked": ("BlockedMatmulResult", "run_blocked_matmul"),
    "matmul": (
        "MatmulLayout", "MatmulRun", "matmul_program_blocked",
        "matmul_program_simple", "run_matmul",
    ),
    "phases": (
        "DEFAULT_PHASE_PARAMS", "PhaseBreakdown", "PhaseModelParams",
        "double_buffered_cycles", "double_buffered_plan", "matmul_cycles",
        "speedup",
    ),
    "transforms": ("run_reduction", "run_transpose"),
    "tiling": ("TilingPlan", "lcm_matrix_dim", "paper_tiling", "select_tile_size"),
    "workloads": (
        "WorkloadRun", "run_axpy", "run_conv2d", "run_dotp", "run_matvec",
        "run_stencil5",
    ),
})

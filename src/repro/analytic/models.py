"""Closed-form tier-0 predictors for the simulated kernels.

Each predictor maps a :class:`~repro.api.scenario.Scenario` to
:class:`AnalyticTerms`: the phase decomposition

    ``T = setup + inner_iters x cycles_per_iter x overhead_factor``

where ``setup`` and the iteration terms derive purely from the
scenario's tiling/arch parameters and ``overhead_factor`` is fitted per
(workload, arch-class) against FastEngine runs by
:mod:`repro.analytic.calibrate`.  The ``inner_iters`` term counts the
*busiest core's* loop trips (work is interleaved across cores, so the
critical path is the core with ``ceil(work / cores)`` trips), and
``cycles_per_iter`` is the instruction count of one trip read straight
off the SPMD program builders in :mod:`repro.kernels.workloads` —
the fitted factor is therefore an effective CPI.

``matmul`` has no predictor: its plugin is already the paper's
closed-form phase model (:mod:`repro.kernels.phases`), so every tier
serves it the same number under the same keys.

This module is the REP009 contract surface: predictors must stay pure
tier-0 — no ``repro.simulator`` imports, no nondeterminism, and only
``Scenario.cycles_dict`` fields (never ``flow``, frequency, or the
objective, which would fracture the calibration arch-class).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..api.registry import register_predictor


@dataclass(frozen=True)
class AnalyticTerms:
    """One scenario's closed-form phase decomposition.

    Attributes:
        setup: Cycles outside the calibrated inner loop that the model
            derives exactly (e.g. a custom kernel's DMA transfer at a
            known bandwidth; zero for the built-in kernels).  The
            calibration adds a fitted constant on top, absorbing
            prologue and barrier cost.
        inner_iters: Busiest-core inner-loop trip count.
        cycles_per_iter: Instructions issued per trip (the per-trip
            cycle cost before the fitted CPI-like overhead factor).
        contention: Optional second regressor for workloads whose
            effective CPI grows with the active core count (shared-bank
            pressure); zero for workloads the single factor explains.
    """

    setup: float
    inner_iters: float
    cycles_per_iter: float
    contention: float = 0.0

    @property
    def work(self) -> float:
        """The calibrated regressor: ``inner_iters x cycles_per_iter``."""
        return self.inner_iters * self.cycles_per_iter


def _active_cores(scenario, work_items: int) -> int:
    """Cores that receive work: the scenario's, capped by available work."""
    return max(1, min(scenario.num_cores, work_items))


def _trips(work_items: int, cores: int) -> int:
    """Busiest-core trip count for interleaved work distribution."""
    return -(-work_items // cores)


@register_predictor(
    "dotp", calibration_dims=(512, 1536, 4096), probe_dims=(768, 2048, 8192)
)
def dotp_predictor(scenario) -> AnalyticTerms:
    """Dot product: 11 instructions per element on the busiest core."""
    n = max(1, scenario.matrix_dim)
    cores = _active_cores(scenario, n)
    return AnalyticTerms(
        setup=0.0, inner_iters=_trips(n, cores), cycles_per_iter=11.0
    )


@register_predictor(
    "axpy", calibration_dims=(512, 1536, 4096), probe_dims=(768, 2048, 8192)
)
def axpy_predictor(scenario) -> AnalyticTerms:
    """AXPY: the dotp loop plus one store per element."""
    n = max(1, scenario.matrix_dim)
    cores = _active_cores(scenario, n)
    return AnalyticTerms(
        setup=0.0, inner_iters=_trips(n, cores), cycles_per_iter=12.0
    )


@register_predictor(
    "conv2d", calibration_dims=(18, 66, 130), probe_dims=(34, 98, 178)
)
def conv2d_predictor(scenario) -> AnalyticTerms:
    """3x3 convolution: 37 instructions per output pixel + 14 per row.

    Rows interleave across cores; the per-row term covers the 9 tap
    reloads and the row-loop bookkeeping.
    """
    out = max(1, scenario.matrix_dim - 2)
    cores = _active_cores(scenario, out)
    rows = _trips(out, cores)
    return AnalyticTerms(
        setup=0.0,
        inner_iters=float(rows * out),
        cycles_per_iter=37.0 + 14.0 / out,
    )


@register_predictor(
    "matvec",
    error_bound=0.15,
    calibration_dims=(56, 80, 128, 152),
    probe_dims=(40, 104, 176),
)
def matvec_predictor(scenario) -> AnalyticTerms:
    """Matrix-vector: 5 instructions per column + 14 per row.

    Every active core streams the shared ``x`` vector, so the effective
    CPI climbs with the active core count (single-ported banks arbitrate
    the same words); the ``sqrt(cores)`` contention regressor captures
    the trend, but the residual is bank-alignment jagged — hence the
    wider declared bound.
    """
    n = max(1, scenario.matrix_dim)
    cores = _active_cores(scenario, n)
    rows = _trips(n, cores)
    inner = float(rows * n)
    cyc = 5.0 + 14.0 / n
    return AnalyticTerms(
        setup=0.0,
        inner_iters=inner,
        cycles_per_iter=cyc,
        contention=inner * cyc * math.sqrt(cores),
    )


@register_predictor(
    "stencil5", calibration_dims=(18, 66, 130), probe_dims=(34, 98, 178)
)
def stencil5_predictor(scenario) -> AnalyticTerms:
    """5-point stencil: 29 instructions per interior point + 4 per row."""
    out = max(1, scenario.matrix_dim - 2)
    cores = _active_cores(scenario, out)
    rows = _trips(out, cores)
    return AnalyticTerms(
        setup=0.0,
        inner_iters=float(rows * out),
        cycles_per_iter=29.0 + 4.0 / out,
    )

"""Architectural x technology co-exploration driver.

The paper's thesis is that interconnect-dominated designs must be
co-explored across architecture (SPM capacity) and technology (2D vs
Macro-3D) simultaneously: the 2D-optimal capacity is not the 3D-optimal
one.  This module sweeps both axes, attaches the kernel-level metrics, and
ranks configurations under different objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..api.registry import OBJECTIVES as _OBJECTIVE_REGISTRY
from ..api.registry import RegistryMapping
from ..kernels.phases import DEFAULT_PHASE_PARAMS, PhaseModelParams
from ..kernels.tiling import TilingPlan, paper_tiling
from ..simulator.memsys import DDR_CHANNEL_BYTES_PER_CYCLE
from .config import CAPACITIES_MIB, Flow, MemPoolConfig
from .metrics import KernelMetrics
from .pareto import non_dominated


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration with implementation and kernel metrics."""

    config: MemPoolConfig
    footprint_um2: float
    combined_area_um2: float
    frequency_mhz: float
    power_mw: float
    kernel: KernelMetrics

    @property
    def performance(self) -> float:
        """Kernel executions per second."""
        return self.kernel.performance

    @property
    def energy_efficiency(self) -> float:
        """Kernel executions per joule."""
        return self.kernel.energy_efficiency

    @property
    def edp(self) -> float:
        """Energy-delay product (lower is better)."""
        return self.kernel.edp


#: Ranking objectives: name -> (key function, higher_is_better).  A live
#: view of the ``repro.api`` objective registry, so objectives added via
#: ``@register_objective`` become rankable here and in ``repro.sweep``
#: without touching this module.
OBJECTIVES: RegistryMapping = RegistryMapping(_OBJECTIVE_REGISTRY)


#: Default ``pareto_front`` objectives: the paper's performance vs
#: energy-efficiency trade-off, both maximized.
DEFAULT_FRONT_OBJECTIVES: tuple[tuple[Callable, bool], ...] = (
    (lambda p: p.performance, True),
    (lambda p: p.energy_efficiency, True),
)


def pareto_front(
    points: Iterable[DesignPoint],
    objectives: Optional[Iterable[tuple[Callable, bool]]] = None,
) -> list[DesignPoint]:
    """Pareto-optimal points under arbitrary objective tuples.

    A point is dominated if another point is at least as good on every
    objective and strictly better on one, so exact ties all stay on the
    front.  The objectives are folded into minimization cost vectors for
    :func:`repro.core.pareto.non_dominated`.

    Args:
        points: The candidate points; with custom ``objectives``, any
            objects their keys read (the HTML report passes records).
        objectives: ``(key_fn, higher_is_better)`` pairs, e.g. entries of
            the ``repro.api`` objective registry.  Defaults to the
            paper's performance/energy-efficiency pair, preserving the
            historical behavior (best-performance last).

    Returns:
        The non-dominated points, sorted ascending by the first
        objective's key.

    Raises:
        ValueError: On an empty objective list.
    """
    objectives = tuple(
        objectives if objectives is not None else DEFAULT_FRONT_OBJECTIVES
    )
    if not objectives:
        raise ValueError("pareto_front needs at least one objective")
    points = list(points)
    costs = [
        tuple(-key(p) if higher else key(p) for key, higher in objectives)
        for p in points
    ]
    front = [points[i] for i in non_dominated(costs)]
    return sorted(front, key=objectives[0][0])


class Explorer:
    """Sweeps capacities and flows, producing ranked design points.

    A thin batch call into :class:`repro.engine.Engine`: the explorer
    only enumerates scenarios; batching, caching, and parallelism are
    the engine's job.

    Args:
        capacities_mib: SPM capacities to explore.
        flows: Implementation flows to explore.
        bandwidth: Off-chip bandwidth for the kernel model (B/cycle).
        phase_params: Phase-model calibration.
        tiling_for: Tiling plan per capacity (defaults to the paper's).
        backend: Execution-backend name or instance (default serial,
            preserving the historical in-process behavior).
        workers: Worker count for pool backends (0 = one per core).
    """

    def __init__(
        self,
        capacities_mib: Iterable[int] = CAPACITIES_MIB,
        flows: Iterable[Flow] = (Flow.FLOW_2D, Flow.FLOW_3D),
        bandwidth: float = DDR_CHANNEL_BYTES_PER_CYCLE,
        phase_params: PhaseModelParams = DEFAULT_PHASE_PARAMS,
        tiling_for: Optional[Callable[[int], TilingPlan]] = None,
        backend: str = "serial",
        workers: int = 0,
    ) -> None:
        self.capacities = tuple(capacities_mib)
        self.flows = tuple(flows)
        if not self.capacities or not self.flows:
            raise ValueError("need at least one capacity and one flow")
        self.bandwidth = float(bandwidth)
        self.phase_params = phase_params
        self.tiling_for = tiling_for or paper_tiling
        self.backend = backend
        self.workers = workers

    def _scenarios(self) -> list:
        """Every configuration as a scenario, in historical sweep order."""
        from ..api.scenario import Scenario

        scenarios = []
        for capacity in self.capacities:
            plan = self.tiling_for(capacity)
            for flow in self.flows:
                scenarios.append(
                    Scenario(
                        capacity_mib=capacity,
                        flow=flow.value,
                        bandwidth=self.bandwidth,
                        matrix_dim=plan.matrix_dim,
                        tile_size=plan.tile_size,
                        word_bytes=plan.word_bytes,
                        num_cores=self.phase_params.num_cores,
                        cpi_mac=self.phase_params.cpi_mac,
                        phase_overhead_cycles=(
                            self.phase_params.phase_overhead_cycles
                        ),
                    )
                )
        return scenarios

    def explore(self) -> list[DesignPoint]:
        """Implement every configuration and attach kernel metrics."""
        from ..engine.core import Engine  # runtime: avoids an import cycle
        from ..sweep.store import record_to_point

        scenarios = self._scenarios()
        engine = Engine(backend=self.backend, workers=self.workers)
        outcome = engine.run(scenarios)
        for record in outcome.failures:
            raise RuntimeError(
                f"exploration failed for {record['job']}: {record['error']}"
            )
        by_key = {record["key"]: record for record in outcome.records}
        # One point per requested scenario, even for repeated entries.
        return [record_to_point(by_key[s.cache_key]) for s in scenarios]

    def rank(
        self, objective: str, points: Optional[list[DesignPoint]] = None
    ) -> list[DesignPoint]:
        """Order design points by an objective (best first).

        Raises:
            ValueError: On an unknown objective name.
        """
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
            )
        key, higher_better = OBJECTIVES[objective]
        points = points if points is not None else self.explore()
        return sorted(points, key=key, reverse=higher_better)

    def pareto_front(
        self,
        points: Optional[list[DesignPoint]] = None,
        objectives: Optional[Iterable[tuple[Callable, bool]]] = None,
    ) -> list[DesignPoint]:
        """Pareto-optimal points (default: performance vs efficiency)."""
        points = points if points is not None else self.explore()
        return pareto_front(points, objectives)

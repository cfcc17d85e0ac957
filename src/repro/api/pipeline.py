"""The Pipeline façade: Scenario in, typed RunResult out.

``Pipeline.run`` resolves the scenario's flow and workload through the
plugin registries, implements the group, evaluates the kernel, and
returns one :class:`RunResult` bundling the physical record
(area/frequency/power and the rest of Table II), the kernel metrics
(cycles/energy/EDP), and the derived objective score.  It is the single
evaluation path behind :class:`repro.engine.Engine` (and so the
explorer, ``repro sweep``, search and the service), the experiment
harness, and the ``repro run`` CLI, so every consumer produces
bit-identical metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..core.metrics import GroupResult, KernelMetrics
from ..obs import profile as _profile
from ..obs import trace as _trace
from .registry import FLOWS, OBJECTIVES, WORKLOADS
from .scenario import Scenario, check_engine

@dataclass(frozen=True)
class RunResult:
    """One evaluated scenario: physical, kernel, and derived metrics."""

    scenario: Scenario
    physical: GroupResult
    kernel: KernelMetrics

    # -- physical ----------------------------------------------------------
    @property
    def name(self) -> str:
        """Instance name, e.g. ``"MemPool-3D-4MiB"``."""
        return self.kernel.name

    @property
    def footprint_um2(self) -> float:
        """Group footprint (one die outline)."""
        return self.physical.footprint_um2

    @property
    def combined_area_um2(self) -> float:
        """Total silicon across dies (the cost metric)."""
        return self.physical.combined_area_um2

    @property
    def frequency_mhz(self) -> float:
        """Achieved implementation frequency."""
        return self.physical.frequency_mhz

    @property
    def power_mw(self) -> float:
        """Implementation power."""
        return self.physical.power_mw

    # -- kernel ------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Kernel cycle count."""
        return self.kernel.cycles

    @property
    def runtime_s(self) -> float:
        """Kernel wall-clock runtime."""
        return self.kernel.runtime_s

    @property
    def energy_j(self) -> float:
        """Energy of one kernel execution."""
        return self.kernel.energy_j

    # -- derived -----------------------------------------------------------
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

    def objective_value(self, objective: Optional[str] = None) -> float:
        """Score under ``objective`` (default: the scenario's own)."""
        key, _ = OBJECTIVES.get(objective or self.scenario.objective)
        return key(self)

    def to_design_point(self):
        """The legacy :class:`~repro.core.explorer.DesignPoint` view."""
        from ..core.explorer import DesignPoint  # runtime: avoids a cycle

        return DesignPoint(
            config=self.scenario.to_config(),
            footprint_um2=self.physical.footprint_um2,
            combined_area_um2=self.physical.combined_area_um2,
            frequency_mhz=self.physical.frequency_mhz,
            power_mw=self.physical.power_mw,
            kernel=self.kernel,
        )

    def to_dict(self) -> dict:
        """JSON-serializable summary (scenario + raw + derived metrics)."""
        return {
            "scenario": self.scenario.to_dict(),
            "physical": {
                "footprint_um2": self.footprint_um2,
                "combined_area_um2": self.combined_area_um2,
                "frequency_mhz": self.frequency_mhz,
                "power_mw": self.power_mw,
                "wire_length_um": self.physical.wire_length_um,
                "num_buffers": self.physical.num_buffers,
                "num_f2f_bumps": self.physical.num_f2f_bumps,
            },
            "kernel": {
                "cycles": self.cycles,
                "runtime_s": self.runtime_s,
                "energy_j": self.energy_j,
            },
            "derived": {
                "performance": self.performance,
                "energy_efficiency": self.energy_efficiency,
                "edp": self.edp,
                "objective": self.scenario.objective,
                "objective_value": self.objective_value(),
            },
        }


class Pipeline:
    """Runs scenarios through the global flow/workload/objective registries.

    Stateless by design: :class:`~repro.api.scenario.Scenario` validates
    against the same global registries this façade resolves from, so a
    scenario that constructs is always runnable.  Plugins join via
    ``@register_flow`` / ``@register_workload`` / ``@register_objective``.

    Args:
        stage_cache: Optional :class:`~repro.engine.cache.StageCache`
            memoizing the two independent stages of :meth:`run`: the
            physical ``implement()`` (keyed by flow/capacity/arch/
            frequency) and the workload ``cycles()`` (keyed by workload/
            tiling/arch/bandwidth).  With one attached, a K-kernels x
            A-archs batch implements each architecture once instead of
            A x K times, and cycle counts are shared across flow,
            frequency, and objective variants.  Plugins must honour the
            stage-key contracts (see
            :meth:`Scenario.physical_dict`/:meth:`Scenario.cycles_dict`).
        profiler: Optional per-instance ``(stage, seconds)`` callback
            (e.g. a :class:`repro.obs.StageProfiler`).  Independent of
            the process-wide hooks in :mod:`repro.obs.profile`, which
            every pipeline always notifies.
        engine: Evaluation engine of the cycles stage: ``"fast"``
            simulates, ``"analytic"`` serves calibrated tier-0
            predictions (falling back to the fast engine per scenario
            when no predictor covers the workload or its calibration
            misses the declared error bound).
    """

    def __init__(self, stage_cache=None, profiler=None, engine="fast") -> None:
        self.stage_cache = stage_cache
        self.profiler = profiler
        self.engine = check_engine(engine)

    def implement(self, scenario: Scenario) -> GroupResult:
        """Physical stage only: implement the group with the scenario's flow."""
        cache = self.stage_cache
        key = scenario.physical_key if cache is not None else None
        if cache is not None:
            cached = cache.get_physical(key)
            if cached is not None:
                return cached
        impl = FLOWS.get(scenario.flow)(scenario)
        if hasattr(impl, "to_group_result"):
            impl = impl.to_group_result()
        if not isinstance(impl, GroupResult):
            raise TypeError(
                f"flow {scenario.flow!r} must return a GroupResult or an "
                f"object with to_group_result(), got {type(impl).__name__}"
            )
        if cache is not None:
            cache.put_physical(key, impl)
        return impl

    def cycles(self, scenario: Scenario) -> float:
        """Kernel stage only: the scenario's workload cycle count.

        With ``engine="analytic"`` the stage serves calibrated tier-0
        predictions, memoized under the ``evaluation_tier``-marked key
        (:meth:`Scenario.cycles_key_for`), so memos never cross between
        predicted and simulated evaluations.
        """
        cache = self.stage_cache
        key = scenario.cycles_key_for(self.engine) if cache is not None else None
        if cache is not None:
            cached = cache.get_cycles(key)
            if cached is not None:
                return cached
        cycles = None
        if scenario.predicted_by(self.engine):
            from ..analytic.tier import predict_cycles

            root = getattr(cache, "root", None)
            cycles = predict_cycles(
                scenario, root=None if root is None else str(root)
            )
        if cycles is None:
            cycles = float(WORKLOADS.get(scenario.workload)(scenario))
        if cycles <= 0:
            raise ValueError(
                f"workload {scenario.workload!r} returned non-positive "
                f"cycles ({cycles})"
            )
        if cache is not None:
            cache.put_cycles(key, cycles)
        return cycles

    def run(self, scenario: Scenario) -> RunResult:
        """Evaluate one scenario end to end."""
        return self.run_profiled(scenario)[0]

    def run_profiled(
        self, scenario: Scenario
    ) -> tuple[RunResult, dict[str, float]]:
        """Evaluate one scenario, timing each stage.

        Returns:
            ``(result, profile)`` where ``profile`` maps stage names
            (``implement_s``, ``cycles_s``) to wall seconds — the data
            behind ``repro run --profile``.

        Each stage is also announced to the observability layer: a
        ``stage.*`` trace span (when armed) and every profiling hook in
        :mod:`repro.obs.profile` (plus this pipeline's own
        ``profiler``), so sweeps get per-stage breakdowns without a
        second code path.
        """
        t0 = time.perf_counter()
        with _trace.span("stage.implement", workload=scenario.workload,
                         flow=scenario.flow):
            physical = self.implement(scenario)
        t1 = time.perf_counter()
        with _trace.span("stage.cycles", workload=scenario.workload,
                         bandwidth=scenario.bandwidth):
            cycles = self.cycles(scenario)
        t2 = time.perf_counter()
        _profile.notify("implement", t1 - t0)
        _profile.notify("cycles", t2 - t1)
        if self.profiler is not None:
            self.profiler("implement", t1 - t0)
            self.profiler("cycles", t2 - t1)
        kernel = KernelMetrics(
            name=scenario.name,
            cycles=cycles,
            frequency_mhz=physical.frequency_mhz,
            power_mw=physical.power_mw,
        )
        result = RunResult(scenario=scenario, physical=physical, kernel=kernel)
        return result, {"implement_s": t1 - t0, "cycles_s": t2 - t1}

    def run_many(self, scenarios: Iterable[Scenario]) -> list[RunResult]:
        """Evaluate scenarios in order (serial; use ``repro.sweep`` to scale)."""
        return [self.run(scenario) for scenario in scenarios]

    def rank(
        self,
        results: Iterable[RunResult],
        objective: Optional[str] = None,
    ) -> list[RunResult]:
        """Order results by an objective, best first.

        Args:
            results: Evaluated results.
            objective: Objective name; defaults to the first result's
                scenario objective.

        Raises:
            ValueError: On an unknown objective name.
        """
        results = list(results)
        if not results:
            return []
        key, higher_better = OBJECTIVES.get(
            objective or results[0].scenario.objective
        )
        return sorted(results, key=key, reverse=higher_better)


def run(scenario: Scenario) -> RunResult:
    """Evaluate one scenario through a default :class:`Pipeline`."""
    return Pipeline().run(scenario)

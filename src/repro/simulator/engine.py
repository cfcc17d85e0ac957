"""Cycle-driven simulation engine.

Steps every core of a :class:`repro.arch.cluster.MemPoolCluster` once per
cycle until all cores halt (or a cycle limit trips).  The engine also keeps
the cluster barrier's population consistent when cores halt, so barriers
cannot deadlock on already-finished cores.

This reference :class:`Engine` is the oracle; :func:`run_cluster`
dispatches between it and the bit-identical fast path in
:mod:`repro.simulator.fast`, as its ``engine`` argument says.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.cluster import MemPoolCluster
from ..arch.snitch import CoreState

#: Selectable simulation engines: the fast SoA path (with automatic
#: fallback) and the reference cycle-by-cycle stepper.  The calibrated
#: tier-0 predictions are no simulator: a pipeline or engine selects
#: them per scenario (``engine="analytic"``).
SIM_ENGINES = ("fast", "reference")


class SimulationTimeout(RuntimeError):
    """Raised when the cycle limit is reached before all cores halt."""


@dataclass
class SimulationResult:
    """Outcome of a cluster simulation."""

    cycles: int
    instructions: int
    barrier_episodes: int

    @property
    def ipc(self) -> float:
        """Cluster-aggregate instructions per cycle."""
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles


class Engine:
    """Runs a loaded cluster to completion.

    Args:
        cluster: A cluster with a program loaded via
            :meth:`repro.arch.cluster.MemPoolCluster.load_program`.
        max_cycles: Safety limit; exceeded limits raise
            :class:`SimulationTimeout`.
    """

    def __init__(self, cluster: MemPoolCluster, max_cycles: int = 5_000_000) -> None:
        if max_cycles <= 0:
            raise ValueError("cycle limit must be positive")
        if not cluster.cores:
            raise ValueError("cluster has no program loaded")
        self.cluster = cluster
        self.max_cycles = max_cycles
        self.cycle = 0

    def run(self) -> SimulationResult:
        """Simulate until every core halts.

        Returns:
            Aggregate cycle/instruction counts.

        Raises:
            SimulationTimeout: If the cycle limit is exceeded.
        """
        cores = self.cluster.cores
        barrier = self.cluster.barrier
        halted = CoreState.HALTED
        active = list(cores)
        while active:
            if self.cycle >= self.max_cycles:
                raise SimulationTimeout(
                    f"{len(active)} cores still running after {self.cycle} cycles"
                )
            newly_halted = 0
            for core in active:
                core.step(self.cycle)
                if core.state is halted:
                    newly_halted += 1
            # Only rebuild the active list on the (rare) cycles where a
            # core actually halted; most cycles skip the list churn.
            if newly_halted:
                active = [c for c in active if c.state is not halted]
                barrier.reduce_parties(newly_halted)
            self.cycle += 1

        return SimulationResult(
            cycles=self.cycle,
            instructions=sum(c.stats.instructions for c in cores),
            barrier_episodes=barrier.episodes,
        )


def run_cluster(
    cluster: MemPoolCluster,
    max_cycles: int = 5_000_000,
    engine: str = "fast",
) -> SimulationResult:
    """Simulate a loaded cluster to completion.

    Args:
        cluster: A cluster with a program loaded.
        max_cycles: Safety limit.
        engine: ``"fast"`` (SoA stepper with event fast-forward, falling
            back to the reference for unsupported setups) or
            ``"reference"`` (the cycle-by-cycle oracle).  The two produce
            bit-identical results; the choice only affects wall-clock
            time.

    Raises:
        ValueError: On an unknown engine name.
    """
    if engine not in SIM_ENGINES:
        raise ValueError(
            f"unknown simulation engine {engine!r}; pick from {SIM_ENGINES}"
        )
    if engine == "fast":
        from .fast import FastEngine  # local: keeps the oracle import-light

        if FastEngine.supports(cluster):
            return FastEngine(cluster, max_cycles=max_cycles).run()
    return Engine(cluster, max_cycles=max_cycles).run()

"""Benchmark: cycle-level simulator throughput, fast path vs reference.

Races the fast SoA engine against the reference cycle-by-cycle engine on
every simulator-backed workload (dotp/axpy/conv2d/matvec/stencil5), the
16x16/16-core blocked matmul, and the full blocked-matmul schedule.
Assertions cover **correctness only** (verified results, bit-identical
cycle counts); timings are printed and recorded in ``BENCH_sim.json``,
the stamped artifact the benchmarks CI job uploads, not asserted.
"""

import time

import pytest

from repro.core.config import Flow, MemPoolConfig
from repro.kernels.blocked import run_blocked_matmul
from repro.kernels.matmul import run_matmul
from repro.kernels.tiling import TilingPlan
from repro.kernels.workloads import (
    run_axpy,
    run_conv2d,
    run_dotp,
    run_matvec,
    run_stencil5,
)
from repro.obs.report import stamp_bench
from repro.simulator.memsys import OffChipMemory

ARTIFACT = "BENCH_sim.json"

_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _warmup():
    """One tiny run per engine so imports/JIT-warm costs stay out of races."""
    config = MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)
    for engine in ("reference", "fast"):
        run_matmul(config, n=4, num_cores=4, sim_engine=engine)


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact(write_bench):
    """Write the speedup artifact after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    write_bench(ARTIFACT, stamp_bench({
        "benchmark": "simulator fast-vs-reference",
        "generated_unix": int(time.time()),
        "workloads": _RESULTS,
    }))


def _race(name: str, runner, rounds: int = 3) -> None:
    """Time ``runner(engine)`` on both engines; assert equivalence only.

    Takes the best of ``rounds`` runs per engine so scheduler noise on
    shared CI runners does not distort the recorded timings.
    """
    timings = {}
    runs = {}
    for engine in ("reference", "fast"):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            runs[engine] = runner(engine)
            best = min(best, time.perf_counter() - t0)
        timings[engine] = best
    ref, fast = runs["reference"], runs["fast"]
    assert ref.correct and fast.correct
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    speedup = timings["reference"] / max(timings["fast"], 1e-9)
    _RESULTS[name] = {
        "reference_s": round(timings["reference"], 4),
        "fast_s": round(timings["fast"], 4),
        "speedup": round(speedup, 2),
        "cycles": int(ref.cycles),
    }
    print(f"\n{name}: reference {timings['reference']:.3f}s, "
          f"fast {timings['fast']:.3f}s -> {speedup:.2f}x "
          f"({ref.cycles} cycles, bit-identical)")


@pytest.fixture
def config():
    return MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)


@pytest.mark.parametrize("workload", [
    "dotp", "axpy", "conv2d", "matvec", "stencil5",
])
def test_workload_fast_vs_reference(config, workload):
    runners = {
        "dotp": lambda e: run_dotp(config, 1024, 16, sim_engine=e),
        "axpy": lambda e: run_axpy(config, 1024, 16, sim_engine=e),
        "conv2d": lambda e: run_conv2d(config, 24, 24, 16, sim_engine=e),
        "matvec": lambda e: run_matvec(config, 48, 48, 16, sim_engine=e),
        "stencil5": lambda e: run_stencil5(config, 24, 24, 16, sim_engine=e),
    }
    _race(workload, runners[workload])


def test_blocked_matmul_fast_vs_reference(config):
    """The headline number: 16x16 blocked matmul on 16 cores."""
    _race("matmul16x16", lambda e: run_matmul(
        config, n=16, num_cores=16, blocked=True, sim_engine=e,
    ), rounds=5)


def test_blocked_schedule_fast_vs_reference(config):
    """Full memory/compute/writeback schedule, scoreboarded cores."""
    plan = TilingPlan(matrix_dim=16, tile_size=8, word_bytes=4)

    class _Shim:
        def __init__(self, run):
            self.cycles = run.total_cycles
            self.instructions = run.phases  # schedule-level invariant
            self.correct = run.correct

    _race("blocked_schedule", lambda e: _Shim(run_blocked_matmul(
        config, plan, OffChipMemory(), num_cores=16, sim_engine=e,
    )))


def test_blocked_matmul_simulation(benchmark):
    """Absolute throughput of the default (fast) engine, tracked."""
    config = MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)
    run = benchmark.pedantic(
        lambda: run_matmul(config, n=16, num_cores=16, blocked=True),
        iterations=1,
        rounds=3,
    )
    assert run.correct
    print(f"\n16x16 matmul on 16 cores: {run.cycles} cycles, "
          f"CPI/MAC {run.cpi_mac:.2f}")

"""Benchmark: cross-scenario fleet batching vs serial fast simulation.

Races :class:`~repro.simulator.fleet.FleetEngine` (the structure-of-
arrays engine behind the ``batched`` execution backend) against a serial
loop of :class:`~repro.simulator.fast.FastEngine` runs over the same
scenario grids.  Assertions cover **correctness only** (every lane
verified and bit-identical to its serial twin); timings are printed and
recorded in ``BENCH_fleet.json`` — a trajectory artifact the benchmarks
CI job uploads and ``repro trajectory append --fleet`` folds into the
tracked trajectory — so speed regressions show up in the log without
failing the job on shared-runner timing variance.

The headline grid is 256 one-core lanes of seed-varied dot products:
equal program lengths keep every lane in lockstep, which is the shape
sweeps and search generations produce (many variations of one workload
family) and where the ≥ 3x acceptance number lives.  The multi-core and
mixed-dimension grids record honest secondary numbers for batches whose
lanes retire at different cycles.
"""

import gc
import time

import pytest

from repro.core.config import Flow, MemPoolConfig
from repro.kernels.workloads import prepare_dotp
from repro.obs.report import stamp_bench
from repro.simulator.fast import FastEngine
from repro.simulator.fleet import FleetEngine

ARTIFACT = "BENCH_fleet.json"

_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _warmup():
    """One tiny fleet so import costs stay out of the races."""
    config = MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)
    lanes = [prepare_dotp(config, 16, 1, seed=s)[0] for s in range(2)]
    FleetEngine(lanes).run()


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact(write_bench):
    """Write the speedup artifact after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    write_bench(ARTIFACT, stamp_bench({
        "benchmark": "fleet batched-vs-fast",
        "generated_unix": int(time.time()),
        "results": _RESULTS,
    }))


def _snapshot(cluster, result):
    """Everything the acceptance gate calls 'byte-identical per lane'."""
    snap = {"result": (result.cycles, result.instructions,
                       result.barrier_episodes)}
    for i, core in enumerate(cluster.cores):
        stats = core.stats
        snap[f"core{i}"] = (
            core.export_state()["regs"], stats.cycles, stats.instructions,
            stats.load_stall_cycles, stats.store_stall_cycles,
            stats.barrier_stall_cycles, stats.icache_stall_cycles,
            stats.branch_stall_cycles, stats.conflict_retries,
        )
    router = cluster.router.stats
    snap["router"] = (router.local_accesses, router.group_accesses,
                      router.cluster_accesses, router.bank_conflicts,
                      router.port_conflicts)
    for t, tile in enumerate(cluster.tiles):
        for b, bank in enumerate(tile.spm.banks):
            snap[f"bank{t}.{b}"] = (bank.busy_cycle, bank.stats.reads,
                                    bank.stats.writes, bank.stats.conflicts,
                                    tuple(bank.export_words()))
    return snap


def _race(name: str, make_lanes, rounds: int = 2) -> None:
    """Min-of-``rounds`` race on fresh clusters; asserts correctness only."""
    serial_best = fleet_best = float("inf")
    identical = True
    verified = 0
    for _ in range(rounds):
        serial_lanes = make_lanes()
        fleet_lanes = make_lanes()

        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            serial_results = [
                FastEngine(cluster).run() for cluster, _fin in serial_lanes
            ]
            serial_best = min(serial_best, time.perf_counter() - t0)

            t0 = time.perf_counter()
            outcomes = FleetEngine(
                [cluster for cluster, _fin in fleet_lanes]
            ).run()
            fleet_best = min(fleet_best, time.perf_counter() - t0)
        finally:
            gc.enable()

        assert all(out.error is None for out in outcomes)
        for (s_cluster, _s), s_res, (f_cluster, f_fin), out in zip(
            serial_lanes, serial_results, fleet_lanes, outcomes
        ):
            run = f_fin(out.result)
            assert run.correct
            verified += 1
            if _snapshot(s_cluster, s_res) != _snapshot(
                f_cluster, out.result
            ):
                identical = False
    assert identical, f"{name}: fleet lanes diverged from FastEngine"
    speedup = serial_best / max(fleet_best, 1e-9)
    _RESULTS[name] = {
        "lanes": len(make_lanes()),
        "serial_s": round(serial_best, 4),
        "batched_s": round(fleet_best, 4),
        "speedup": round(speedup, 2),
        "identical": identical,
        "lanes_verified": verified,
    }
    print(f"\n{name}: serial {serial_best:.3f}s, fleet {fleet_best:.3f}s "
          f"-> {speedup:.2f}x ({verified} lanes verified, bit-identical)")


@pytest.fixture
def config():
    return MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)


def test_lockstep_grid_256(config):
    """The headline: 256 seed-varied one-core dotp lanes in lockstep."""
    _race("lockstep_256x1core", lambda: [
        prepare_dotp(config, 512, 1, seed=s) for s in range(256)
    ])


def test_lockstep_grid_64(config):
    """The ≥32-lane acceptance shape at a smaller, CI-friendlier width."""
    _race("lockstep_64x1core", lambda: [
        prepare_dotp(config, 256, 1, seed=s) for s in range(64)
    ])


def test_multicore_batch(config):
    """16-core lanes: intra-lane barriers, honest secondary number."""
    _race("multicore_32x16core", lambda: [
        prepare_dotp(config, 256, 16, seed=s) for s in range(32)
    ])


def test_mixed_dims_batch(config):
    """Lanes of different program lengths retire at different cycles."""
    _race("mixed_dims_64x1core", lambda: [
        prepare_dotp(config, 128 + 4 * i, 1, seed=i) for i in range(64)
    ])

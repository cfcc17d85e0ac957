"""Benchmark: the calibrated analytic tier vs the fast engine.

Two questions, one artifact (``BENCH_analytic.json``):

* **Accuracy** — re-fit every registered predictor from scratch and
  record its full residual distribution; the *structural* assertion is
  that each achieved probe error honours the predictor's declared bound
  (the tier-0 accuracy contract), and it fails the benchmarks CI job.
* **Throughput** — evaluate the paper's full 56-point grid (4
  capacities x 2 flows x 7 bandwidths) through calibrated predictions
  and race that against a serial fast-engine loop over a subset,
  recording points/sec for both tiers.  The acceptance floor (>= 50x
  over serial fast) is asserted here with a few-hundred-x margin;
  wall-clock numbers themselves are recorded, not gated.
"""

import gc
import time

import pytest

from repro.analytic import calibrate, predict_cycles
from repro.analytic.store import _reset_stores
from repro.api import Scenario
from repro.api.registry import WORKLOADS, available_predictors
from repro.obs.report import stamp_bench

ARTIFACT = "BENCH_analytic.json"

#: The paper's exhaustive sweep axes (fig. 7-9).
GRID_CAPACITIES = (1, 2, 4, 8)
GRID_FLOWS = ("2D", "3D")
GRID_BANDWIDTHS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Problem size of the throughput grid (off the dotp calibration dims).
GRID_DIM = 2048

#: Valid starting dims per workload (calibrate() swaps in its own dims).
SEED_DIMS = {
    "dotp": 512, "axpy": 512, "conv2d": 18, "matvec": 56, "stencil5": 18,
}

_RESULTS: dict[str, dict] = {}


def _grid():
    return [
        Scenario(capacity_mib=cap, flow=flow, bandwidth=bw,
                 matrix_dim=GRID_DIM, workload="dotp")
        for cap in GRID_CAPACITIES
        for flow in GRID_FLOWS
        for bw in GRID_BANDWIDTHS
    ]


@pytest.fixture(scope="module", autouse=True)
def _fresh_stores():
    """Benchmark fits its own calibrations, isolated from other modules."""
    _reset_stores()
    yield
    _reset_stores()


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact(write_bench):
    """Write the error/throughput artifact after the benchmarks ran."""
    yield
    if not _RESULTS:
        return
    write_bench(ARTIFACT, stamp_bench({
        "benchmark": "analytic tier-0 vs fast",
        "generated_unix": int(time.time()),
        "workloads": _RESULTS.get("workloads", {}),
        "throughput": _RESULTS.get("throughput", {}),
    }))


def test_error_distribution_within_declared_bounds():
    """Re-fit every predictor and record its residual distribution."""
    rows = {}
    for workload in available_predictors():
        scenario = Scenario(
            capacity_mib=1, flow="2D", bandwidth=16.0,
            matrix_dim=SEED_DIMS[workload], workload=workload,
        )
        record = calibrate(workload, scenario)
        rows[workload] = {
            "error_bound": record.error_bound,
            "achieved_error": round(record.achieved_error, 5),
            "within_bound": record.within_bound,
            "factor": round(record.factor, 4),
            "residuals": {d: round(e, 5)
                          for d, e in sorted(record.residuals.items())},
        }
        # The structural gate: accuracy is contractual, timing is not.
        assert record.within_bound, (
            f"{workload}: achieved {record.achieved_error:.3f} > "
            f"declared bound {record.error_bound:.3f}"
        )
    _RESULTS["workloads"] = rows
    print("\nachieved calibration error per workload:")
    for name, row in sorted(rows.items()):
        print(f"  {name:10s} {row['achieved_error']:.4f} "
              f"(bound {row['error_bound']:.2f})")


def test_throughput_56_point_grid_vs_fast():
    """Tier-0 evaluates the full paper grid; the fast engine races a subset."""
    grid = _grid()
    subset = [s for s in grid if s.capacity_mib == 1 and s.flow == "2D"]

    # Warm every (workload, arch-class) calibration the grid needs so
    # the timed loop measures prediction serving, not one-time fits.
    for cap in GRID_CAPACITIES:
        assert predict_cycles(grid[0].replace(capacity_mib=cap)) is not None

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        predictions = [predict_cycles(s) for s in grid]
        analytic_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        simulated = [float(WORKLOADS.get("dotp")(s)) for s in subset]
        fast_s = time.perf_counter() - t0
    finally:
        gc.enable()

    assert all(p is not None for p in predictions)
    # Tier-0 accuracy sanity on the live grid: every prediction lands
    # within the declared dotp bound of its simulated twin.
    bound = 0.05
    for scenario, measured in zip(subset, simulated):
        predicted = predict_cycles(scenario)
        assert abs(predicted - measured) / measured <= bound

    analytic_pps = len(grid) / max(analytic_s, 1e-9)
    fast_pps = len(subset) / max(fast_s, 1e-9)
    speedup = analytic_pps / fast_pps
    _RESULTS["throughput"] = {
        "grid_points": len(grid),
        "analytic_s": round(analytic_s, 5),
        "analytic_points_per_s": round(analytic_pps, 1),
        "fast_points": len(subset),
        "fast_s": round(fast_s, 4),
        "fast_points_per_s": round(fast_pps, 2),
        "speedup_vs_fast": round(speedup, 1),
    }
    print(f"\n56-point grid: analytic {analytic_pps:,.0f} pts/s, "
          f"fast {fast_pps:.1f} pts/s -> {speedup:,.0f}x vs serial fast")
    # The acceptance floor, with a few-hundred-x margin: a warm
    # prediction is arithmetic, a fast-engine point is a simulation.
    assert speedup >= 50.0

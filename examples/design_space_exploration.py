#!/usr/bin/env python3
"""Design-space co-exploration on the parallel, cached engine.

Reproduces the paper's central workflow — sweeping the architectural axis
(1-8 MiB of shared L1) and the technology axis (2D vs Macro-3D) together —
as a `repro.sweep` grid run on `repro.engine.Engine`: the grid also spans
off-chip bandwidth, runs across worker processes, and lands in a
content-addressed cache, so the second pass over the same grid costs
nothing.

Run:  python examples/design_space_exploration.py [bandwidth_B_per_cycle ...]
"""

import sys
import tempfile

from repro.engine import Engine
from repro.search import Searcher, paper_space
from repro.sweep import (
    ResultCache,
    SweepSpec,
    format_table,
    labeled_points,
    summarize,
)


def engine_demo(spec: SweepSpec) -> None:
    """The execution layer directly: thread backend + in-memory LRU tier."""
    engine = Engine(backend="thread", workers=4)
    cold = engine.run(spec.jobs())
    warm = engine.run(spec.jobs())  # LRU tier: zero evaluations, no disk
    print("engine directly (thread backend, LRU tier):")
    print(f"  cold: {cold.stats.summary()}")
    print(f"  warm: {warm.stats.summary()}")
    assert warm.stats.evaluated == 0


def analytic_demo() -> None:
    """Tier-0 screen, tier-1 confirm: the two-stage exploration pattern.

    The calibrated analytic engine ranks the whole grid for the cost of
    one calibration fit, then only the short-listed points pay for real
    simulation — the shape that makes million-point sweeps tractable.
    """
    from repro.api import Pipeline, Scenario

    grid = [
        Scenario(capacity_mib=cap, flow=flow, bandwidth=bw,
                 matrix_dim=1280, workload="dotp")
        for cap in (1, 2, 4, 8)
        for flow in ("2D", "3D")
        for bw in (4.0, 16.0, 64.0)
    ]
    tier0 = Pipeline(engine="analytic")
    screened = sorted(grid, key=lambda s: tier0.run(s).edp)[:3]

    tier1 = Pipeline()  # default fast simulator: bit-exact cycles
    confirmed = min(screened, key=lambda s: tier1.run(s).edp)
    best = tier1.run(confirmed)
    print("analytic tier-0 screen -> tier-1 confirmation:")
    print(f"  screened {len(grid)} points analytically, "
          f"simulated only {len(screened)}")
    print(f"  best: {confirmed.capacity_mib} MiB {confirmed.flow} @ "
          f"{confirmed.bandwidth:g} B/cycle, "
          f"edp {best.edp:.3e} (simulated)")


def guided_search_demo() -> None:
    """The same co-exploration, guided: half the budget, same winners."""
    searcher = Searcher(
        paper_space(),
        objectives=("edp", "energy_efficiency"),
        strategy="evolutionary",
        budget=28,  # half of the exhaustive 56-point grid
    )
    outcome = searcher.run()
    print("guided search over the 56-point paper space "
          "(repro.search, evolutionary strategy):")
    print(outcome.report(top=1))


def main() -> None:
    bandwidths = tuple(float(a) for a in sys.argv[1:]) or (4.0, 16.0, 64.0)
    spec = SweepSpec(bandwidths=bandwidths)

    with tempfile.TemporaryDirectory(prefix="sweep-cache-") as cache_dir:
        cache = ResultCache(cache_dir)
        outcome = Engine(cache=cache, workers=2).run(spec.jobs())
        print(f"cold sweep of {len(spec)} points:   {outcome.stats.summary()}")

        # A new engine has an empty memory tier: every hit is on disk.
        resumed = Engine(cache=cache, workers=2).run(spec.jobs())
        print(f"warm sweep (content-addressed): {resumed.stats.summary()}")
        assert resumed.stats.evaluated == 0, "second pass must be pure cache hits"

    print(f"\nDesign points (matmul @ {', '.join(f'{b:g}' for b in bandwidths)}"
          " B/cycle off-chip):\n")
    print(format_table(labeled_points(outcome.records)))

    print()
    print(summarize(outcome.records, top=1))

    print()
    engine_demo(spec)

    print()
    analytic_demo()

    print()
    guided_search_demo()


if __name__ == "__main__":
    main()

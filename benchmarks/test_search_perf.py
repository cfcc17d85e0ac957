"""Benchmark: guided search vs the exhaustive grid, plus cached re-search.

Covers the subsystem's acceptance bar: on the paper's 56-point space the
evolutionary strategy recovers the exhaustive grid's Pareto-best EDP and
energy points while spending at most half the grid's evaluations, and a
re-search against the same content-addressed cache performs zero new
evaluations (which is what makes ``repro search --resume`` free after a
kill).
"""

import time

from repro.engine import Engine
from repro.search import Searcher, paper_space
from repro.sweep import ResultCache, SweepSpec, record_to_point

#: The exhaustive reference: 4 capacities x 2 flows x 7 bandwidths.
GRID = SweepSpec(bandwidths=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0))


def _grid_optima():
    outcome = Engine().run(GRID.jobs())
    assert outcome.stats.failed == 0
    points = [record_to_point(r) for r in outcome.ok_records]
    return {
        "edp": min(p.edp for p in points),
        "energy_efficiency": max(p.energy_efficiency for p in points),
        "energy_j": min(p.kernel.energy_j for p in points),
    }


def test_evolutionary_recovers_grid_optima_at_half_the_evaluations(tmp_path):
    assert len(GRID) == 56
    best = _grid_optima()

    t0 = time.perf_counter()
    outcome = Searcher(
        paper_space(),
        objectives=("edp", "energy_efficiency"),
        strategy="evolutionary",
        budget=len(GRID) // 2,
        cache=ResultCache(tmp_path),
    ).run()
    duration = time.perf_counter() - t0

    assert outcome.stats.evaluated <= len(GRID) // 2
    found_edp = outcome.best("edp").objectives["edp"]
    found_eff = outcome.best("energy_efficiency").objectives[
        "energy_efficiency"
    ]
    assert found_edp == best["edp"]
    assert found_eff == best["energy_efficiency"]
    # Max executions/J and min J/execution rank identically, so the
    # search also recovered the grid's minimum-energy point.
    best_energy = min(
        record_to_point(c.record).kernel.energy_j
        for c in outcome.ok_candidates
    )
    assert best_energy == best["energy_j"]

    print(f"\nevolutionary {outcome.stats.proposed} evals "
          f"(grid: {len(GRID)}) in {duration:.2f}s -> "
          f"edp {found_edp:.4e}, eff {found_eff:.4e} (both grid-optimal)")


def test_cached_research_performs_zero_new_evaluations(tmp_path, benchmark):
    cache = ResultCache(tmp_path)

    def search():
        return Searcher(
            paper_space(),
            objectives=("edp", "energy_efficiency"),
            strategy="evolutionary",
            budget=28,
            cache=cache,
        ).run()

    cold = search()
    assert cold.stats.evaluated == 28

    warm = benchmark.pedantic(search, iterations=1, rounds=3)
    assert warm.stats.evaluated == 0
    assert warm.stats.cached == 28
    assert [c.key for c in warm.candidates] == [c.key for c in cold.candidates]
    speedup = cold.stats.duration_s / max(warm.stats.duration_s, 1e-9)
    print(f"\ncold search {cold.stats.duration_s * 1e3:.0f}ms -> "
          f"warm re-search {warm.stats.duration_s * 1e3:.0f}ms "
          f"({speedup:.1f}x, zero re-evaluations)")

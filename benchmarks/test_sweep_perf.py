"""Benchmark: sweep engine vs the serial explorer, plus cache-hit resume.

Covers the subsystem's acceptance bar: a >= 50-point grid swept with 4
workers produces results identical to the serial ``Explorer`` for the
shared points, and a second invocation completes purely from the
content-addressed cache with zero re-evaluations.
"""

import time

from repro.core.explorer import Explorer
from repro.engine import Engine
from repro.sweep import ResultCache, SweepSpec, record_to_point

#: 4 capacities x 2 flows x 7 bandwidths = 56 design points.
BANDWIDTHS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
GRID = SweepSpec(bandwidths=BANDWIDTHS)


def test_parallel_sweep_matches_serial_explorer(tmp_path):
    assert len(GRID) >= 50

    t0 = time.perf_counter()
    serial_points = {
        (bw, p.config.name): p
        for bw in BANDWIDTHS
        for p in Explorer(bandwidth=bw).explore()
    }
    t_serial = time.perf_counter() - t0

    cache = ResultCache(tmp_path)
    t0 = time.perf_counter()
    outcome = Engine(cache=cache, workers=4).run(GRID.jobs())
    t_parallel = time.perf_counter() - t0

    assert outcome.stats.evaluated == len(GRID)
    assert outcome.stats.failed == 0
    for record in outcome.ok_records:
        point = record_to_point(record)
        assert point == serial_points[(record["job"]["bandwidth"], point.config.name)]

    print(f"\nserial explorer {len(GRID)} pts: {t_serial:.2f}s   "
          f"parallel sweep: {t_parallel:.2f}s   "
          f"ratio {t_serial / t_parallel:.2f}x")


def test_cached_resweep_is_near_free(tmp_path, benchmark):
    cache = ResultCache(tmp_path)
    cold = Engine(cache=cache, workers=4).run(GRID.jobs())
    assert cold.stats.evaluated == len(GRID)

    warm = benchmark.pedantic(
        lambda: Engine(cache=cache, workers=4).run(GRID.jobs()),
        iterations=1,
        rounds=3,
    )
    assert warm.stats.evaluated == 0
    assert warm.stats.cached == len(GRID)
    assert warm.points() == cold.points()
    speedup = cold.stats.duration_s / max(warm.stats.duration_s, 1e-9)
    print(f"\ncold sweep {cold.stats.duration_s:.2f}s -> "
          f"warm resweep {warm.stats.duration_s * 1e3:.1f}ms "
          f"({speedup:.0f}x)")
    assert warm.stats.duration_s < cold.stats.duration_s

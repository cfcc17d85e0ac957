"""Stage counters of ``process``-pool workers reach the cache sidecar.

A pool worker counts its own stage-memo hits and evaluations, and they
reach ``stats.json`` once, at the worker's exit.  Under ``fork`` the
worker inherits the parent's process-wide stage memo with its counters:
it must add its own growth (the parent's exit hooks do not run in it)
and must not add the parent's unflushed growth a second time.
"""

import multiprocessing

import pytest

from repro.api import Pipeline, Scenario
from repro.engine import Engine, cache_stats
from repro.engine.cache import stage_cache_for
from repro.sweep import ResultCache

COUNTERS = ("physical_evals", "cycles_evals", "physical_hits", "cycles_hits")

START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            method not in multiprocessing.get_all_start_methods(),
            reason=f"no {method} start method here",
        ),
    )
    for method in ("fork", "spawn")
]

#: 4 physical configurations and 6 cycle counts among 12 points.
POINTS = [
    Scenario(capacity_mib=capacity, flow=flow, bandwidth=bandwidth)
    for capacity in (1, 2) for flow in ("2D", "3D") for bandwidth in (2, 16, 128)
]


def _counters(root) -> tuple:
    stats = cache_stats(root)
    return tuple(stats.get(name, 0) for name in COUNTERS)


def _pool(root, method: str, workers: int) -> Engine:
    return Engine(
        backend="process",
        workers=workers,
        cache=ResultCache(root),
        mp_context=multiprocessing.get_context(method),
    )


@pytest.mark.parametrize("method", START_METHODS)
def test_one_worker_counts_as_serial(tmp_path, method):
    Engine(cache=ResultCache(tmp_path / "serial")).run(POINTS)
    serial = _counters(tmp_path / "serial")
    assert serial == (4, 6, 8, 6)
    _pool(tmp_path / "pool", method, workers=1).run(POINTS)
    assert _counters(tmp_path / "pool") == serial


@pytest.mark.parametrize("method", START_METHODS)
def test_two_workers_count_every_lookup(tmp_path, method):
    # The workers race on the same configurations, so the split between
    # hits and evaluations varies; each lookup is counted once.
    _pool(tmp_path, method, workers=2).run(POINTS)
    physical_evals, cycles_evals, physical_hits, cycles_hits = _counters(tmp_path)
    assert physical_evals + physical_hits == len(POINTS)
    assert cycles_evals + cycles_hits == len(POINTS)
    assert physical_evals >= 4 and cycles_evals >= 6


@pytest.mark.parametrize("method", START_METHODS)
def test_parent_growth_before_the_pool_lands_once(tmp_path, method):
    def run(root, backend_engine):
        # Unflushed parent growth: a pipeline on the process-wide memo.
        pipeline = Pipeline(stage_cache=stage_cache_for(root))
        for scenario in POINTS[:5]:
            pipeline.run(scenario)
        assert stage_cache_for(root).counters()["physical_evals"] > 0
        assert _counters(root) == (0, 0, 0, 0)
        backend_engine(root).run(POINTS)
        return _counters(root)

    serial = run(tmp_path / "serial", lambda root: Engine(cache=ResultCache(root)))
    pooled = run(tmp_path / "pool", lambda root: _pool(root, method, workers=1))
    assert pooled == serial
    # Every point is one physical and one cycles lookup.
    assert sum(serial) == 2 * (5 + len(POINTS))

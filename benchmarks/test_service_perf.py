"""Benchmark: warm-cache request throughput of the job-API service.

Runs the full 56-point paper grid through ``POST /v1/runs`` once to warm
the shared tiered cache, then hammers the sync endpoint from several
concurrent keep-alive clients.  Assertions cover **correctness only**
(every warm response is cache-sourced, and the engine performed exactly
one evaluation per design point — zero duplicates); the requests/second
figure is printed and recorded in ``BENCH_service.json``, the stamped
artifact the benchmarks CI job uploads, not asserted.
"""

import threading
import time

import pytest

from repro.client import ServiceClient
from repro.service import ReproService
from repro.obs.report import stamp_bench
from repro.sweep import SweepSpec

ARTIFACT = "BENCH_service.json"

#: 4 capacities x 2 flows x 7 bandwidths = 56 design points.
GRID = SweepSpec(bandwidths=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0))

#: Concurrent keep-alive clients x sync requests each.
CLIENTS = 4
REQUESTS_PER_CLIENT = 400

_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact(write_bench):
    """Write the throughput artifact after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    write_bench(ARTIFACT, stamp_bench({
        "benchmark": "service warm-cache throughput",
        "generated_unix": int(time.time()),
        "results": _RESULTS,
    }))


def _count_evaluations(service: ReproService) -> list:
    """Wrap the service engine's evaluate to log every real pipeline run."""
    evaluations = []
    inner = service.engine.evaluate

    def counting_evaluate(job):
        evaluations.append(job.key)
        return inner(job)

    service.engine.evaluate = counting_evaluate
    return evaluations


def test_warm_sync_runs_sustain_thousands_of_requests(tmp_path):
    assert len(GRID) == 56
    scenarios = [job.scenario().to_dict() for job in GRID.jobs()]

    service = ReproService(port=0, cache_dir=str(tmp_path / "cache"))
    evaluations = _count_evaluations(service)
    with service.run_in_thread() as url:
        # Cold pass: one request evaluates the whole grid and fills the
        # shared tiered cache (memory LRU + disk JSONL).
        cold = ServiceClient(url).run(scenarios)
        assert len(cold) == len(scenarios)
        assert all(record["status"] == "ok" for record in cold)
        assert len(evaluations) == len(scenarios)

        # Warm pass: several keep-alive clients issue single-scenario
        # sync requests round-robin over the grid.
        sources = []
        errors = []

        def hammer(offset: int) -> None:
            client = ServiceClient(url)
            mine = []
            try:
                for i in range(REQUESTS_PER_CLIENT):
                    scenario = scenarios[(offset + i) % len(scenarios)]
                    (record,) = client.run([scenario])
                    mine.append(record["source"])
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)
            sources.extend(mine)

        threads = [
            threading.Thread(target=hammer, args=(k * 7,))
            for k in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0

    assert not errors, errors[0]
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(sources) == total
    # Every warm response came from the cache, and the engine never
    # re-evaluated a point: zero duplicate evaluations.
    assert set(sources) == {"cache"}
    assert len(evaluations) == len(scenarios)
    assert len(set(evaluations)) == len(evaluations)

    rps = total / elapsed
    print(f"\nwarm sync /v1/runs: {total} requests over {CLIENTS} "
          f"connections in {elapsed:.2f}s = {rps:,.0f} req/s "
          f"(evaluations: {len(evaluations)}, duplicates: 0)")
    _RESULTS["warm_sync_runs"] = {
        "grid_points": len(scenarios),
        "clients": CLIENTS,
        "requests": total,
        "seconds": round(elapsed, 4),
        "requests_per_s": round(rps, 1),
        "evaluations": len(evaluations),
        "duplicate_evaluations": 0,
    }


def test_warm_sweep_job_streams_the_grid_from_cache(tmp_path):
    """A submitted sweep over a warm cache streams every record as a
    cache hit; records/s is recorded alongside the sync figure."""
    service = ReproService(port=0, cache_dir=str(tmp_path / "cache"))
    evaluations = _count_evaluations(service)
    with service.run_in_thread() as url:
        client = ServiceClient(url)
        cold_id = client.submit_sweep(GRID)
        assert client.wait(cold_id, timeout_s=120)["state"] == "done"
        assert len(evaluations) == len(GRID)

        t0 = time.perf_counter()
        warm_id = client.submit_sweep(GRID)
        records = list(client.iter_results(warm_id))
        elapsed = time.perf_counter() - t0

    assert len(records) == len(GRID)
    assert {record["source"] for record in records} == {"cache"}
    assert len(evaluations) == len(GRID)  # nothing re-evaluated

    rps = len(records) / elapsed
    print(f"\nwarm streamed sweep: {len(records)} records in "
          f"{elapsed:.2f}s = {rps:,.0f} records/s (0 re-evaluations)")
    _RESULTS["warm_streamed_sweep"] = {
        "records": len(records),
        "seconds": round(elapsed, 4),
        "records_per_s": round(rps, 1),
        "re_evaluations": 0,
    }

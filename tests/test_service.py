"""The serving layer end to end: HTTP API, job table, client SDK."""

import dataclasses
import logging
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.client import ServiceClient, ServiceError
from repro.engine import Engine
from repro.service import ReproService
from repro.service.jobs import JobState, JobTable, ServiceJob
from repro.sweep import SweepSpec

SPEC = SweepSpec(capacities_mib=(1, 2), flows=("2D", "3D"), bandwidths=(4.0,))


def _slowed(service: ReproService, delay_s: float) -> ReproService:
    """Wrap the service engine's evaluate with a fixed per-job delay."""
    inner = service.engine.evaluate

    def slow_evaluate(job):
        time.sleep(delay_s)
        return inner(job)

    service.engine.evaluate = slow_evaluate
    return service


class TestJobTable:
    def test_lifecycle_and_snapshot(self):
        table = JobTable()
        job = table.create("sweep", {"spec": {}})
        assert job.state == JobState.QUEUED
        job.start()
        job.set_total(2)
        job.append({"status": "ok", "source": "cache"})
        job.append({"status": "error"})
        job.finish(JobState.DONE)
        snap = job.snapshot()
        assert snap["state"] == "done"
        assert (snap["done"], snap["cached"], snap["failed"]) == (2, 1, 1)
        assert table.counts() == {"done": 1}
        assert table.pending() == 0

    def test_cancel_queued_is_immediate(self):
        job = JobTable().create("run", {})
        assert job.cancel() is True
        assert job.state == JobState.CANCELLED
        assert job.cancel() is False  # already terminal

    def test_wait_records_unblocks_on_append(self):
        job = ServiceJob(id="j1", kind="run", spec={})
        records, finished = job.wait_records(0, timeout=0.01)
        assert records == [] and not finished
        job.append({"status": "ok"})
        records, finished = job.wait_records(0, timeout=0.01)
        assert len(records) == 1 and not finished


class TestServiceEndToEnd:
    def test_sweep_submit_stream_wait(self, tmp_path):
        service = ReproService(port=0, cache_dir=str(tmp_path / "cache"))
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            assert client.health()["status"] == "ok"
            job_id = client.submit_sweep(SPEC)
            streamed = list(client.iter_results(job_id))
            final = client.wait(job_id, timeout_s=30)
            assert final["state"] == "done"
            assert len(streamed) == len(list(SPEC.jobs()))
            assert all(r["status"] == "ok" for r in streamed)
            assert {r["key"] for r in streamed} == {
                j.key for j in SPEC.jobs()
            }
            # Same records an in-process engine would produce.
            expected = Engine(backend="serial", cache=None).run(SPEC.jobs())
            by_key = {r["key"]: r for r in expected.records}
            for record in streamed:
                assert record["metrics"] == by_key[record["key"]]["metrics"]

    def test_stream_resumes_from_offset(self, tmp_path):
        service = ReproService(port=0, cache_dir=str(tmp_path / "cache"))
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            job_id = client.submit_sweep(SPEC)
            client.wait(job_id, timeout_s=30)
            full = client.results(job_id)
            tail = client.results(job_id, start=2)
            assert tail == full[2:]

    def test_sync_runs_hit_the_shared_cache(self, tmp_path):
        service = ReproService(port=0, cache_dir=str(tmp_path / "cache"))
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            scenarios = [j.scenario().to_dict() for j in SPEC.jobs()]
            first = client.run(scenarios)
            second = client.run(scenarios)
            assert {r["source"] for r in second} == {"cache"}
            assert [r["key"] for r in first] == [r["key"] for r in second]
            stats = client.cache_stats()
            assert stats["entries"] == len(scenarios)

    def test_sync_run_stats_are_the_engine_stats(self, tmp_path):
        service = ReproService(port=0, cache_dir=str(tmp_path / "cache"))
        outcomes = []
        run_sync = service._run_sync

        def recording_run_sync(*args):
            outcomes.append(run_sync(*args))
            return outcomes[-1]

        service._run_sync = recording_run_sync
        body = {"scenarios": [j.scenario().to_dict() for j in SPEC.jobs()],
                "sync": True}
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            cold = client._request("POST", "/v1/runs", body)
            warm = client._request("POST", "/v1/runs", body)
        assert cold["stats"]["evaluated"] == warm["stats"]["cached"] == 4
        assert len(outcomes) == 2
        for response, outcome in zip((cold, warm), outcomes):
            assert response["stats"] == dataclasses.asdict(outcome.stats)

    def test_search_job_streams_budgeted_records(self, tmp_path):
        service = ReproService(port=0, cache_dir=str(tmp_path / "cache"))
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            space = {
                "axes": [
                    {"kind": "choice", "name": "capacity_mib",
                     "values": [1, 2, 4]},
                    {"kind": "choice", "name": "bandwidth",
                     "values": [4.0, 8.0]},
                ]
            }
            job_id = client.submit_search(space, budget=5, seed=3)
            records = list(client.iter_results(job_id))
            assert len(records) == 5
            assert client.status(job_id)["state"] == "done"

    def test_analytic_service_serves_predictions(self, tmp_path):
        """A service built for the analytic tier answers sync runs and
        searches with tier-0 predictions, under the analytic keys."""
        from repro.api import Pipeline, Scenario
        from repro.sweep import Job

        base = dict(capacity_mib=1, workload="dotp", num_cores=16)
        scenarios = [Scenario(matrix_dim=dim, **base)
                     for dim in (768, 1536, 3000)]
        space = {
            "axes": [{"kind": "choice", "name": "matrix_dim",
                      "values": [768, 1536, 3000, 5000]}],
            "base": base,
        }
        service = ReproService(port=0, cache_dir=str(tmp_path / "cache"),
                               sim_engine="analytic")
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            runs = client.run(scenarios)
            job_id = client.submit_search(space, strategy="random",
                                          budget=3, seed=1)
            searched = list(client.iter_results(job_id))
            assert client.status(job_id)["state"] == "done"

        tier0, simulated = Pipeline(engine="analytic"), Pipeline()
        assert [r["metrics"]["cycles"] for r in runs] == [
            tier0.run(s).cycles for s in scenarios
        ]
        assert [r["key"] for r in runs] == [
            s.cache_key_for("analytic") for s in scenarios
        ]
        assert runs[0]["metrics"]["cycles"] != (
            simulated.run(scenarios[0]).cycles
        )
        assert len(searched) == 3
        for record in searched:
            scenario = Job.from_params(record["job"]).scenario()
            assert record["key"] == scenario.cache_key_for("analytic")
            assert record["metrics"]["cycles"] == tier0.run(scenario).cycles

    def test_cancel_running_job_stops_early(self):
        service = _slowed(ReproService(port=0), delay_s=0.2)
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            job_id = client.submit_sweep(SPEC)
            while client.status(job_id)["done"] < 1:
                time.sleep(0.02)
            client.cancel(job_id)
            final = client.wait(job_id, timeout_s=30)
            assert final["state"] == "cancelled"
            assert final["done"] < len(list(SPEC.jobs()))

    def test_backpressure_429_with_retry_after(self):
        service = _slowed(
            ReproService(port=0, queue_limit=1, max_active=1), delay_s=0.5
        )
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            scenario = [next(iter(SPEC.jobs())).scenario().to_dict()]
            first = client.submit_runs(scenario)
            while client.status(first)["state"] == "queued":
                time.sleep(0.02)
            client.submit_runs(scenario)  # fills the one queue slot
            with pytest.raises(ServiceError) as excinfo:
                client.submit_runs(scenario)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s is not None

    def test_drain_refuses_new_work_then_stops(self):
        service = _slowed(ReproService(port=0), delay_s=0.1)
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            job_id = client.submit_sweep(SPEC)
            service._loop.call_soon_threadsafe(service.request_drain)
            while client.health()["status"] != "draining":
                time.sleep(0.01)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_sweep(SPEC)
            assert excinfo.value.status == 503
            # The active job still runs to completion before shutdown.
            try:
                state = client.wait(job_id, timeout_s=30)["state"]
            except ConnectionError:
                # The drain finished and closed the listener between
                # polls — only possible once the job completed.
                state = service.table.get(job_id).state
            assert state == "done"

    def test_http_errors(self, tmp_path):
        service = ReproService(port=0)
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceError) as excinfo:
                client.status("j999999")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client._request(
                    "POST", "/v1/sweeps", {"spec": {"capacities_mib": "x"}}
                )
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/runs", {"scenarios": []})
            assert excinfo.value.status == 400
            # Python's json reads the NaN token, so it reaches Scenario.
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/runs", {
                    "scenario": {"capacity_mib": 1, "bandwidth": float("nan")},
                    "sync": True,
                })
            assert excinfo.value.status == 400
            assert excinfo.value.message == (
                "bad scenario: bandwidth must be finite, got nan"
            )

    def test_stop_after_client_disconnect_is_quiet(self, tmp_path, caplog):
        """Stopping right after a client closes logs no handler traceback.

        The handler of the just-closed connection may still be awaiting
        ``wait_closed`` when the service stops; shutdown must let it
        finish rather than cancel it (a cancelled handler makes the
        stream protocol log ``CancelledError`` through the event loop's
        exception handler).  The window is a race, so it is retried.
        """
        from repro.api import Scenario

        cache = str(tmp_path / "cache")
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            for _ in range(10):
                service = ReproService(port=0, cache_dir=cache)
                with service.run_in_thread() as url:
                    with ServiceClient(url) as client:
                        client.run([Scenario(capacity_mib=1)])
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []

    def test_client_connection_retry_and_failure(self):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=1, backoff_s=0.01, timeout_s=0.2
        )
        with pytest.raises(ConnectionError):
            client.health()


class TestServeCli:
    def test_serve_process_sigterm_drains_cleanly(self, tmp_path):
        """`repro serve` comes up, answers, and exits 0 on SIGTERM."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", line)
            assert match, f"no URL in {line!r}"
            client = ServiceClient(match.group(0))
            job_id = client.submit_sweep(SPEC)
            assert client.wait(job_id, timeout_s=30)["state"] == "done"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestPublicSurface:
    def test_lazy_exports(self):
        import repro

        assert repro.ReproService is ReproService
        assert repro.ServiceClient is ServiceClient

    def test_service_package_exports(self):
        import repro.service as service_pkg

        for name in service_pkg.__all__:
            assert getattr(service_pkg, name) is not None

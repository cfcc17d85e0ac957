"""The ``process`` execution backend: equivalence, fault tolerance, stops.

The slow/crashing workloads and evaluate functions are module-level so
they pickle by reference into ``spawn``-started workers, and so the
subprocesses of the Ctrl-C and parent-kill tests can import them.
"""

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.api.registry import WORKLOADS
from repro.engine import Engine, backends
from repro.engine.backends import ProcessBackend, run_one
from repro.engine.core import evaluate_job
from repro.sweep import ResultCache, SweepSpec
from repro.sweep.spec import Job

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


def slow_workload(scenario):
    """The matmul workload, slowed enough to catch mid-batch."""
    time.sleep(0.15)
    return WORKLOADS.get("matmul")(scenario)


def sluggish_workload(scenario):
    """The matmul workload, slow enough that a batch of 56 outlasts any
    wait for it to stop."""
    time.sleep(0.5)
    return WORKLOADS.get("matmul")(scenario)


def hanging_workload(scenario):
    """Outlives any per-job timeout a test would configure."""
    time.sleep(120)
    return 0.0


def dying_workload(scenario):
    """Takes its whole worker process down, like a segfault would."""
    os._exit(17)


_TEST_WORKLOADS = {
    "test-slow": slow_workload,
    "test-sluggish": sluggish_workload,
    "test-hang": hanging_workload,
    "test-die": dying_workload,
}

#: Six 16-core dotp points; the fourth kills its worker once.
DOTP_DIMS = (256, 512, 768, 1024, 1536, 2048)


def exit_once(marker: str, job):
    """Evaluate ``job``, except that the fourth dotp point's first
    attempt takes its worker process down, as an OOM kill would."""
    if job.matrix_dim == DOTP_DIMS[3]:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os._exit(17)
    return evaluate_job(job)


def marked_sluggish(marker_dir: str, job):
    """Leave one marker file per start of an evaluation, then take 0.5 s."""
    Path(marker_dir, f"{job.key}-{os.getpid()}-{time.monotonic_ns()}").touch()
    time.sleep(0.5)
    return evaluate_job(job)


@pytest.fixture
def fault_workloads():
    """Register the slow/crash/hang workloads."""
    for name, fn in _TEST_WORKLOADS.items():
        WORKLOADS.register(name, fn)
    yield
    for name in _TEST_WORKLOADS:
        WORKLOADS.unregister(name)


@pytest.fixture
def fast_retries(monkeypatch):
    """Short backoffs, so requeued jobs run again at once."""
    monkeypatch.setattr(backends, "BACKOFF_S", 0.01)
    return monkeypatch


def _sweep_env() -> dict:
    """The environment of a subprocess that imports ``repro`` and this
    module."""
    src = Path(backends.__file__).resolve().parents[2]
    here = Path(__file__).resolve().parent
    path = [str(src), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("REPRO_TRACE", None)
    return env


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies have)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _canonical(records) -> list:
    """Records as comparable strings, ignoring cache provenance."""
    return sorted(
        json.dumps(
            {k: v for k, v in record.items() if k != "source"},
            sort_keys=True,
        )
        for record in records
    )


class TestEquivalence:
    def test_engine_records_match_serial_exactly(self):
        """Acceptance: --backend process is byte-identical to serial."""
        spec = SweepSpec(
            capacities_mib=(1, 2),
            flows=("2D", "3D"),
            bandwidths=(4.0, 16.0),
        )
        serial = Engine(backend="serial", cache=None).run(spec.jobs())
        process = Engine(
            backend="process", workers=2, cache=None
        ).run(spec.jobs())
        assert _canonical(serial.records) == _canonical(process.records)
        assert process.stats.failed == 0

    def test_empty_batch_is_a_noop(self):
        assert list(ProcessBackend(workers=1).run(evaluate_job, [])) == []


class TestFaultTolerance:
    def test_kill9_mid_batch_loses_nothing(self, fault_workloads,
                                           fast_retries):
        """SIGKILL a worker mid-batch: only its in-flight job re-runs;
        the batch completes with results identical to serial."""
        jobs = [
            Job(capacity_mib=c, flow="2D", bandwidth=b, kernel="test-slow")
            for c in (1, 2) for b in (2.0, 4.0, 8.0, 16.0)
        ]
        expected = _canonical(run_one(evaluate_job, j) for j in jobs)

        backend = ProcessBackend(workers=2)
        records = []
        killed = None
        for record in backend.run(evaluate_job, jobs):
            records.append(record)
            if killed is None:
                pids = [p.pid for p in multiprocessing.active_children()]
                assert pids, "no live workers observed mid-batch"
                killed = pids[0]
                os.kill(killed, signal.SIGKILL)
        assert killed is not None
        assert len(records) == len(jobs)
        assert all(r["status"] == "ok" for r in records)
        assert _canonical(records) == expected

    def test_job_timeout_surfaces_as_failure_record(self, fault_workloads,
                                                    fast_retries):
        fast_retries.setattr(backends, "JOB_TIMEOUT_S", 1.0)
        fast_retries.setattr(backends, "MAX_RETRIES", 0)
        backend = ProcessBackend(workers=1)
        jobs = [Job(capacity_mib=1, flow="2D", kernel="test-hang")]
        records = list(backend.run(evaluate_job, jobs))
        assert len(records) == 1
        assert records[0]["status"] == "error"
        assert "timeout" in records[0]["error"]
        assert records[0]["key"] == jobs[0].key

    def test_worker_death_bounded_retry_then_failure(self, fault_workloads,
                                                     fast_retries):
        """A job that always kills its worker fails after MAX_RETRIES
        redispatches; healthy jobs in the same batch still complete."""
        fast_retries.setattr(backends, "MAX_RETRIES", 1)
        jobs = [
            Job(capacity_mib=1, flow="2D", kernel="test-die"),
            Job(capacity_mib=1, flow="2D", kernel="matmul"),
            Job(capacity_mib=2, flow="2D", kernel="matmul"),
        ]
        backend = ProcessBackend(workers=2)
        records = {r["key"]: r for r in backend.run(evaluate_job, jobs)}
        assert len(records) == 3
        doomed = records[jobs[0].key]
        assert doomed["status"] == "error"
        assert "after 2 attempts" in doomed["error"]
        for job in jobs[1:]:
            assert records[job.key]["status"] == "ok"

    @pytest.mark.skipif(
        not Path("/proc").is_dir(), reason="reads worker states from /proc"
    )
    def test_workers_exit_when_their_parent_is_killed(self):
        """A SIGKILL-ed parent runs no clean-up, and its orphaned
        workers must not wait for chunks forever."""
        script = (
            "import multiprocessing, time\n"
            "import test_process_backend as t\n"
            "from repro.api.registry import WORKLOADS\n"
            "from repro.engine import Engine\n"
            "from repro.sweep.spec import Job\n"
            "WORKLOADS.register('test-sluggish', t.sluggish_workload)\n"
            "jobs = [Job(capacity_mib=c, flow='2D', bandwidth=b,\n"
            "            kernel='test-sluggish')\n"
            "        for c in (1, 2, 4, 8) for b in (2.0, 4.0, 8.0, 16.0)]\n"
            "stream = Engine(backend='process', workers=2).run_many(jobs)\n"
            "next(stream)\n"
            "print(*[p.pid for p in multiprocessing.active_children()],\n"
            "      flush=True)\n"
            "time.sleep(60)\n"
        )
        pids = []
        with subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, env=_sweep_env(),
                              text=True) as proc:
            try:
                assert select.select([proc.stdout], [], [], 60.0)[0]
                pids = [int(pid) for pid in proc.stdout.readline().split()]
                assert len(pids) == 2
            finally:
                proc.kill()
        try:
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("method", START_METHODS)
    def test_a_dead_worker_costs_one_requeue(self, tmp_path, method):
        """A worker that exits mid-batch (an OOM kill, a segfault) costs
        its job one more attempt: all six points are evaluated and
        cached, not two of them and a broken pool."""
        scenarios = [
            Scenario(capacity_mib=1, workload="dotp", matrix_dim=dim,
                     num_cores=16)
            for dim in DOTP_DIMS
        ]
        outcome = Engine(
            backend="process",
            workers=2,
            mp_context=multiprocessing.get_context(method),
            cache=ResultCache(tmp_path / "cache"),
            evaluate=partial(exit_once, str(tmp_path / "died")),
        ).run(scenarios)
        assert (tmp_path / "died").exists()  # the fourth point did exit
        assert [r["status"] for r in outcome.records] == ["ok"] * 6
        assert len(ResultCache(tmp_path / "cache")) == 6


class TestStoppedBatches:
    """A batch stopped early stops its work: only running jobs finish."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_closing_a_batch_starts_no_more_evaluations(self, tmp_path,
                                                        backend):
        jobs = [
            Job(capacity_mib=c, flow="2D", bandwidth=b)
            for c in (1, 2) for b in (2.0, 4.0, 8.0, 16.0)
        ]
        stream = Engine(
            backend=backend,
            workers=2,
            evaluate=partial(marked_sluggish, str(tmp_path)),
        ).run_many(jobs)
        next(stream)
        stream.close()
        starts = len(list(tmp_path.iterdir()))
        assert 2 <= starts < len(jobs)
        assert multiprocessing.active_children() == []

    def test_ctrl_c_stops_a_process_sweep(self, capsys, tmp_path):
        """SIGINT to a sweep's process group: exit 130 soon, with the
        interruption line alone on stderr (no worker tracebacks)."""
        from repro.__main__ import _interrupted

        _interrupted("sweep", cached=True)
        expected = capsys.readouterr().err

        script = (
            "import sys\n"
            "import test_process_backend as t\n"
            "from repro.api.registry import WORKLOADS\n"
            "WORKLOADS.register('test-sluggish', t.sluggish_workload)\n"
            "from repro.__main__ import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", script, "sweep", "--workers", "2",
             "--backend", "process", "--kernels", "test-sluggish",
             "--bandwidths", "2,4,8,16,32,64,128",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=_sweep_env(), text=True, encoding="utf-8",
            start_new_session=True,
        ) as proc:
            try:
                time.sleep(2.0)
                assert proc.poll() is None, proc.stderr.read()
                os.killpg(proc.pid, signal.SIGINT)
                t0 = time.monotonic()
                _, err = proc.communicate(timeout=5.0)
                assert time.monotonic() - t0 < 5.0
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130
        assert err == expected
        with pytest.raises(ProcessLookupError):  # no worker outlived it
            os.killpg(proc.pid, 0)

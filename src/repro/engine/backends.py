"""Pluggable execution backends: where the engine's parallelism lives.

An :class:`ExecutionBackend` turns a list of jobs into a stream of result
records, evaluating each job under a per-job error trap so one diverging
configuration becomes a failure record instead of killing the batch.
Backends are plugins — the fifth registry, alongside flows, workloads,
objectives, and strategies::

    from repro.engine import register_backend

    @register_backend("my-cluster")
    class ClusterBackend:
        def __init__(self, workers=0, mp_context=None): ...
        def run(self, evaluate, jobs): ...

Three backends ship built in:

* ``serial`` — in-process loop, deterministic order, zero overhead;
* ``thread`` — ``ThreadPoolExecutor`` fan-out sharing the process (and
  its plugin registries and in-memory cache tier) with the caller;
* ``process`` — supervised worker processes, each fed deterministic
  chunks of jobs over its own pipe.  A worker that dies or outlives its
  chunk's deadline costs that chunk one requeue, job by job, with a
  bounded number of retries; the workers re-register the parent's
  runtime plugins, so ``spawn``-started ones see them too.
"""

from __future__ import annotations

import inspect
import math
import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, Iterator, Optional, Protocol, runtime_checkable

from ..api.registry import FLOWS, WORKLOADS, Registry
from ..obs import metrics, trace
from ..sweep.spec import Job
from ..sweep.store import failure_record, point_to_record

#: Wall-clock distribution of real (non-cache) job evaluations.
JOB_SECONDS = metrics.histogram(
    "repro_engine_job_seconds",
    "per-job evaluation latency (cache hits excluded)",
)

#: Chunks handed to each worker per scheduling round; keeping several
#: chunks per worker balances stragglers against IPC overhead.
CHUNKS_PER_WORKER = 4

#: Cap on auto-sized worker pools (``workers=0``).
MAX_AUTO_WORKERS = 32

#: Seconds one job may take in a ``process`` worker: a chunk of N jobs
#: gets N times this before its worker is killed and the chunk requeued.
JOB_TIMEOUT_S = 300.0

#: Redispatches of a job whose worker died or timed out; past them the
#: job becomes a failure record.
MAX_RETRIES = 2

#: Delay before a job's first redispatch; doubles with each further one.
BACKOFF_S = 0.05


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the engine needs from a backend: stream records for jobs.

    ``run`` yields one record per job, in any order, as evaluations
    complete.  Every record must come from :func:`run_one` (or preserve
    its contract): a ``point_to_record`` dict on success, a
    ``failure_record`` dict on error — exceptions never escape.  Only
    records cross process boundaries, never what ``evaluate`` returned.
    """

    def run(
        self, evaluate: Callable[[Job], object], jobs: list[Job]
    ) -> Iterator[dict]:
        ...


def run_one(
    evaluate: Callable[[Job], object],
    job: Job,
    trace_ctx: Optional[dict] = None,
) -> dict:
    """Evaluate one job, trapping any exception into a failure record.

    ``evaluate(job)`` returns a :class:`~repro.api.RunResult` (the
    engine's default), a :class:`~repro.core.explorer.DesignPoint`, or
    any object with the metric attributes
    :func:`~repro.sweep.store.point_to_record` reads; the record is
    built from it here.

    ``trace_ctx`` re-parents this job's span when the evaluation runs
    on a thread the submitter's trace context cannot reach (pool
    threads); serial callers leave it ``None`` and inherit ambiently.
    """
    t0 = time.perf_counter()
    with trace.activate(trace_ctx):
        job_span = trace.span("engine.job", key=job.key)
        with job_span:
            try:
                record = point_to_record(job, evaluate(job))
            except Exception as exc:  # captured per job; the batch continues
                record = failure_record(job, exc)
            job_span.set(status=record["status"])
    JOB_SECONDS.observe(time.perf_counter() - t0)
    return record


def _picklable_items(registry: Registry) -> list[tuple[str, object]]:
    """(name, plugin) pairs of a registry that survive pickling.

    Module-level plugin callables pickle by reference; lambdas and
    closures do not — those are silently dropped (a job needing one in a
    worker fails per-job with an "unknown workload" failure record).
    """
    items = []
    for name in registry.names():
        obj = registry.get(name)
        try:
            pickle.dumps(obj)
        except Exception:
            continue
        items.append((name, obj))
    return items


def _init_worker(
    flow_items: list[tuple[str, object]],
    workload_items: list[tuple[str, object]],
) -> None:
    """Mirror the parent's plugin registrations in a worker process.

    Under the ``fork`` start method workers inherit the parent's
    registries and this is a no-op; under ``spawn``/``forkserver`` only
    the built-in (import-seeded) plugins would exist, so anything the
    parent registered at runtime is re-registered here.
    """
    for name, obj in flow_items:
        if name not in FLOWS:  # membership check also seeds the builtins
            FLOWS.register(name, obj)  # repro: ignore[REP005] worker-side hydration
    for name, obj in workload_items:
        if name not in WORKLOADS:
            WORKLOADS.register(name, obj)  # repro: ignore[REP005] worker-side hydration


def _auto_workers(workers: int) -> int:
    """Resolve a worker count: 0 means "one per core", bounded."""
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if workers == 0:
        return min(MAX_AUTO_WORKERS, os.cpu_count() or 1)
    return workers


#: Backend registry: name -> backend class.  The fifth plugin registry.
BACKENDS = Registry("backend")


def register_backend(name: str):
    """Decorator registering an :class:`ExecutionBackend` class."""
    return BACKENDS.decorator(name)


def get_backend(name: str) -> type:
    """The registered backend class for ``name``."""
    return BACKENDS.get(name)  # type: ignore[return-value]


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend."""
    return BACKENDS.names()


@register_backend("serial")
class SerialBackend:
    """In-process loop: deterministic order, no pool, no overhead."""

    name = "serial"

    def __init__(self, workers: int = 0, mp_context=None):
        del workers, mp_context  # uniform constructor surface
        self.workers = 1

    def run(self, evaluate, jobs):
        for job in jobs:
            yield run_one(evaluate, job)


@register_backend("thread")
class ThreadBackend:
    """``ThreadPoolExecutor`` fan-out inside the calling process.

    Threads share the caller's plugin registries and in-memory cache
    tier, need no pickling, and start in microseconds — the right choice
    for the analytic models, whose per-point cost is far below process
    IPC overhead.  Results stream in completion order; a batch closed
    or interrupted early finishes only the jobs already running.
    """

    name = "thread"

    def __init__(self, workers: int = 0, mp_context=None):
        del mp_context
        self.workers = _auto_workers(workers)

    def run(self, evaluate, jobs):
        if not jobs:
            return
        workers = min(self.workers, len(jobs))
        # Thread-locals don't follow work into the pool: capture the
        # submitting span context once and re-parent each job to it.
        ctx = trace.current_context()
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(run_one, evaluate, job, ctx) for job in jobs
            }
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)


def _worker(conn, evaluate, envelope, flow_items, workload_items) -> None:
    """A ``process`` worker: evaluate each chunk of jobs ``conn`` brings.

    Sends back one list of records per chunk.  ``None``, EOF or the
    parent's death ends the loop and the worker returns, so its
    process's exit hooks (the stage counters' flush) run.  SIGINT is
    ignored: the parent handles Ctrl-C and stops its workers.
    """
    import signal
    from multiprocessing import parent_process
    from multiprocessing.connection import wait as wait_any

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _init_worker(flow_items, workload_items)
    # A forked worker holds a copy of the parent's pipe end, so EOF never
    # comes if the parent is killed; its sentinel does.
    parent = parent_process().sentinel
    # The submitter's span context and sink: spans re-parent to the
    # backend span and append to the submitter's trace file.
    with trace.adopt(envelope):
        while conn in wait_any([conn, parent]):
            try:
                chunk = conn.recv()
            except EOFError:
                return
            if chunk is None:
                return
            conn.send([run_one(evaluate, job) for job in chunk])


@register_backend("process")
class ProcessBackend:
    """Supervised worker processes fed deterministic chunks of jobs.

    Each batch starts its own workers, from ``mp_context`` or the
    platform's default start method, each with one pipe.  The jobs are
    split into :data:`CHUNKS_PER_WORKER` chunks per worker, and a worker
    sends back one list of records per chunk.  One wait over every
    worker's pipe and process sentinel supervises them:

    * a worker that dies (a crash, an OOM kill, ``kill -9``) is
      replaced, and its chunk is requeued one job per chunk, so the
      other workers keep streaming and a job that kills its worker takes
      down only itself;
    * a chunk still running after :data:`JOB_TIMEOUT_S` per job has its
      worker killed and is requeued the same way;
    * a requeue is one more attempt of each job, after an exponential
      backoff from :data:`BACKOFF_S`, and a job past
      :data:`MAX_RETRIES` becomes a failure record, so a batch neither
      hangs nor loses a job.

    The workers re-register the parent's picklable runtime plugins, so
    ``spawn``- and ``forkserver``-started workers match ``fork``-started
    ones.  When the batch ends, idle workers are told to exit and busy
    ones (a closed or interrupted batch) are killed, and all are joined
    before the generator returns, so the workers' stage counters are on
    disk by then.  Workers are daemonic, so an evaluation cannot start
    processes of its own.
    """

    name = "process"

    def __init__(self, workers: int = 0, mp_context=None):
        self.workers = _auto_workers(workers)
        self.mp_context = mp_context

    def run(self, evaluate, jobs):
        if not jobs:
            return
        # Imported on first use: a serial or thread engine never loads them.
        import heapq
        import itertools
        import multiprocessing
        from multiprocessing.connection import wait as wait_any

        context = self.mp_context or multiprocessing.get_context()
        size = math.ceil(
            len(jobs) / (min(self.workers, len(jobs)) * CHUNKS_PER_WORKER)
        )
        tiebreak = itertools.count()
        # (due time, tiebreak, job indices, attempts so far): first
        # chunks are due at once, requeued jobs after their backoff.
        pending = [
            (0.0, next(tiebreak), range(i, min(i + size, len(jobs))), 0)
            for i in range(0, len(jobs), size)
        ]
        target = min(self.workers, len(pending))
        args = (
            evaluate,
            trace.envelope(),
            _picklable_items(FLOWS),
            _picklable_items(WORKLOADS),
        )
        conns = {}  # live worker -> the parent's end of its pipe
        busy = {}  # worker -> (job indices, attempts so far, deadline)
        idle = []
        out = []  # records due to be yielded
        deaths = completed = done = 0
        last_error = None

        def lose(worker, reason=None) -> list:
            """Write a worker off: its chunk's jobs are requeued one per
            chunk, or, past :data:`MAX_RETRIES`, become failure records."""
            nonlocal deaths, last_error
            conn = conns.pop(worker)
            if worker in idle:
                idle.remove(worker)
            worker.kill()
            worker.join()
            conn.close()
            deaths += 1
            last_error = reason or f"worker exited with code {worker.exitcode}"
            indices, attempts, _ = busy.pop(worker, ((), 0, 0.0))
            attempts += 1
            if attempts > MAX_RETRIES:
                error = RuntimeError(
                    f"evaluation failed after {attempts} attempts: "
                    f"{last_error}"
                )
                return [failure_record(jobs[i], error) for i in indices]
            due = time.monotonic() + BACKOFF_S * 2.0 ** (attempts - 1)
            for i in indices:
                heapq.heappush(pending, (due, next(tiebreak), (i,), attempts))
            return []

        try:
            while done < len(jobs):
                now = time.monotonic()
                while (
                    pending
                    and pending[0][0] <= now
                    and (idle or len(conns) < target)
                ):
                    if not idle:  # grow (or regrow) the pool toward target
                        conn, child = context.Pipe()
                        worker = context.Process(
                            target=_worker, args=(child, *args), daemon=True
                        )
                        try:
                            worker.start()
                        except OSError as exc:
                            if not conns:
                                raise RuntimeError(
                                    f"cannot start worker processes: {exc}"
                                ) from exc
                            target = len(conns)
                            break
                        finally:
                            child.close()
                        conns[worker] = conn
                        idle.append(worker)
                    _, _, indices, attempts = heapq.heappop(pending)
                    worker = idle.pop()
                    busy[worker] = (
                        indices, attempts, now + JOB_TIMEOUT_S * len(indices)
                    )
                    try:
                        conns[worker].send([jobs[i] for i in indices])
                    except OSError as exc:  # it died while idle
                        out += lose(worker, str(exc))

                if deaths >= max(8, 4 * target) and not completed:
                    raise RuntimeError(
                        f"worker processes keep dying before completing any "
                        f"job; check their stderr (last error: {last_error})"
                    )

                if out:  # yielded after the dispatch above refilled workers
                    records, out = out, []
                    for record in records:
                        done += 1
                        yield record
                    continue

                # Sleep until a worker replies or dies, a chunk's
                # deadline passes, or a requeued job falls due.
                wake = [deadline for _, _, deadline in busy.values()]
                if pending and (idle or len(conns) < target):
                    wake.append(pending[0][0])
                handles = {conn: worker for worker, conn in conns.items()}
                handles.update((worker.sentinel, worker) for worker in conns)
                ready = wait_any(
                    list(handles), max(0.0, min(wake) - now) if wake else None
                )
                for worker in dict.fromkeys(handles[h] for h in ready):
                    conn = conns[worker]
                    try:  # no data after a sentinel alone: the worker died
                        records = conn.recv() if conn.poll() else None
                    except (EOFError, OSError):
                        records = None
                    if records is None:
                        out += lose(worker)
                    else:
                        del busy[worker]
                        idle.append(worker)
                        completed += 1
                        out += records
                now = time.monotonic()
                for worker, (indices, _, deadline) in list(busy.items()):
                    if deadline <= now:
                        out += lose(
                            worker,
                            f"timeout after {JOB_TIMEOUT_S * len(indices):g}s",
                        )
        finally:
            for worker, conn in conns.items():
                if worker in busy:
                    worker.kill()
                else:
                    try:
                        conn.send(None)
                    except OSError:
                        worker.kill()
            for worker, conn in conns.items():
                worker.join()
                conn.close()


def resolve_backend(backend, workers: int = 0, mp_context=None) -> ExecutionBackend:
    """An :class:`ExecutionBackend` instance from a name, class, or instance.

    Args:
        backend: Registered backend name, an :class:`ExecutionBackend`
            class (instantiated with the standard keyword surface), a
            ready-made instance (returned as-is), or ``None`` for the
            historical default — ``process`` when ``workers > 1``,
            ``serial`` otherwise.
        workers: Worker count forwarded to the backend constructor.
        mp_context: Multiprocessing context for process-based backends.

    Raises:
        ValueError: On a negative ``workers`` (whatever the backend), or
            an unknown backend name.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if backend is None:
        backend = "process" if workers > 1 else "serial"
    if isinstance(backend, str):
        backend = BACKENDS.get(backend)
    if inspect.isclass(backend):
        # A class (named or passed directly): build it.  Checked before
        # the protocol isinstance, which a class itself would satisfy —
        # returning it unbuilt would explode much later inside run().
        backend = backend(workers=workers, mp_context=mp_context)
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(
            f"backend must be a registered name, an ExecutionBackend class, "
            f"or an instance; got {type(backend).__name__}"
        )
    return backend

"""Pluggable execution backends: where the engine's parallelism lives.

An :class:`ExecutionBackend` turns a list of jobs into a stream of result
records, evaluating each job under a per-job error trap so one diverging
configuration becomes a failure record instead of killing the batch.
Backends are plugins — the fifth registry, alongside flows, workloads,
objectives, and strategies::

    from repro.engine import register_backend

    @register_backend("my-cluster")
    class ClusterBackend:
        def __init__(self, workers=0, mp_context=None, chunksize=None): ...
        def run(self, evaluate, jobs): ...

Three backends ship built in:

* ``serial`` — in-process loop, deterministic order, zero overhead;
* ``thread`` — ``ThreadPoolExecutor`` fan-out sharing the process (and
  its plugin registries and in-memory cache tier) with the caller;
* ``process`` — ``ProcessPoolExecutor`` fan-out in deterministic chunks,
  with the worker initializer mirroring the parent's runtime plugin
  registrations so ``spawn``-started workers see them too.

A fourth, ``remote``, ships with the serving layer and fans jobs out to
worker processes over the wire protocol.  The registry's seed imports it
on the first lookup of a name not yet registered, so a process that never
asks for ``remote`` never loads the protocol, ``socket`` or
``subprocess``.
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


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the engine needs from a backend: stream records for jobs.

    ``run`` yields one record per job, in any order, as evaluations
    complete.  Every record must come from :func:`run_one` (or preserve
    its contract): a ``point_to_record`` dict on success, a
    ``failure_record`` dict on error — exceptions never escape.  Only
    records cross process and wire boundaries, never what ``evaluate``
    returned.
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


def _run_chunk(
    args: tuple[Callable, list[Job], Optional[dict]]
) -> list[dict]:
    """Process-pool work item: evaluate one chunk of jobs (picklable).

    The third element is a :func:`repro.obs.trace.envelope` (or
    ``None``): workers adopt it so their spans re-parent to the
    submitting backend span and append to the submitter's sink.
    """
    evaluate, chunk, envelope = args
    with trace.adopt(envelope):
        return [run_one(evaluate, job) for job in chunk]


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
    """Worker initializer: mirror the parent's plugin registrations.

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


def _seed_remote() -> None:
    # Not registered at import: ``remote`` lives with the wire protocol,
    # whose modules (and ``socket``, ``subprocess``) only it needs.
    from ..service.pool import RemoteBackend

    BACKENDS.register("remote", RemoteBackend)


#: Backend registry: name -> backend class.  The fifth plugin registry.
BACKENDS = Registry("backend", seed=_seed_remote)


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

    def __init__(self, workers: int = 0, mp_context=None, chunksize=None):
        del workers, mp_context, chunksize  # uniform constructor surface
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
    IPC overhead.  Results stream in completion order.
    """

    name = "thread"

    def __init__(self, workers: int = 0, mp_context=None, chunksize=None):
        del mp_context, chunksize
        self.workers = _auto_workers(workers)

    def run(self, evaluate, jobs):
        if not jobs:
            return
        workers = min(self.workers, len(jobs))
        # Thread-locals don't follow work into the pool: capture the
        # submitting span context once and re-parent each job to it.
        ctx = trace.current_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(run_one, evaluate, job, ctx) for job in jobs
            }
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()


@register_backend("process")
class ProcessBackend:
    """``ProcessPoolExecutor`` fan-out in deterministic chunks.

    Jobs ship to workers in chunks (``chunksize`` or an even split with
    :data:`CHUNKS_PER_WORKER` chunks per worker); the initializer
    re-registers the parent's picklable runtime plugins so ``spawn``- and
    ``forkserver``-started workers match ``fork``-started ones.  Records
    stream back chunk by chunk as chunks complete.
    """

    name = "process"

    def __init__(self, workers: int = 0, mp_context=None, chunksize=None):
        if chunksize is not None and chunksize <= 0:
            raise ValueError("chunksize must be positive")
        self.workers = _auto_workers(workers)
        self.mp_context = mp_context
        self.chunksize = chunksize

    def run(self, evaluate, jobs):
        if not jobs:
            return
        workers = min(self.workers, len(jobs))
        chunksize = self.chunksize or max(
            1, math.ceil(len(jobs) / (workers * CHUNKS_PER_WORKER))
        )
        chunks = [
            jobs[i : i + chunksize] for i in range(0, len(jobs), chunksize)
        ]
        # Ships the span context (and sink path) inside the work item —
        # None when tracing is disarmed, so the common case pickles a
        # single None.
        envelope = trace.envelope()
        # Imported on first use: the module loads most of multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self.mp_context,
            initializer=_init_worker,
            initargs=(_picklable_items(FLOWS), _picklable_items(WORKLOADS)),
        ) as pool:
            futures = {
                pool.submit(_run_chunk, (evaluate, chunk, envelope))
                for chunk in chunks
            }
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    yield from future.result()


def resolve_backend(
    backend, workers: int = 0, mp_context=None, chunksize=None
) -> ExecutionBackend:
    """An :class:`ExecutionBackend` instance from a name, class, or instance.

    Args:
        backend: Registered backend name, an :class:`ExecutionBackend`
            class (instantiated with the standard keyword surface), a
            ready-made instance (returned as-is), or ``None`` for the
            historical default — ``process`` when ``workers > 1``,
            ``serial`` otherwise.
        workers: Worker count forwarded to the backend constructor.
        mp_context: Multiprocessing context for process-based backends.
        chunksize: Explicit chunk size for chunking backends.

    Raises:
        ValueError: On a negative ``workers`` or a non-positive
            ``chunksize`` (whatever the backend), or an unknown backend
            name.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if chunksize is not None and chunksize <= 0:
        raise ValueError("chunksize must be positive")
    if backend is None:
        backend = "process" if workers > 1 else "serial"
    if isinstance(backend, str):
        backend = BACKENDS.get(backend)
    if inspect.isclass(backend):
        # A class (named or passed directly): build it.  Checked before
        # the protocol isinstance, which a class itself would satisfy —
        # returning it unbuilt would explode much later inside run().
        backend = backend(
            workers=workers, mp_context=mp_context, chunksize=chunksize
        )
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(
            f"backend must be a registered name, an ExecutionBackend class, "
            f"or an instance; got {type(backend).__name__}"
        )
    return backend

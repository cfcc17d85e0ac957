"""The execution engine: one batched evaluation path for every consumer.

:class:`Engine` is where batching, caching, and parallelism live.  The
serial :class:`~repro.core.explorer.Explorer`, ``repro sweep``, the
``repro.search`` driver, the service, and the experiment harness all
funnel their evaluations through :meth:`Engine.run_many`, which

* adopts each :class:`~repro.api.Scenario` as it is, as a
  :class:`~repro.sweep.spec.Job` view keyed for the engine's evaluation
  tier (``sim_engine``), so each point is built and validated once and
  its records never cross tiers,
* serves repeats from a two-tier cache (bounded in-memory LRU over the
  on-disk :class:`~repro.sweep.cache.ResultCache`), group-committing
  new records and stage memos as one locked append per journal,
* fans the rest out through a pluggable :mod:`execution backend
  <repro.engine.backends>`, and
* streams ``(job, record)`` pairs back as they complete, each job under
  a per-item error trap (the sweep's failure-record semantics).

Every consumer gets the same cache keys, record shapes, and failure
handling, so results are interchangeable across layers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional, Union

from pathlib import Path

from ..api.scenario import Scenario, check_engine
from ..obs import trace as _trace
from ..sweep.cache import ResultCache
from ..sweep.spec import Job
from ..sweep.store import ResultStore
from .backends import ExecutionBackend, resolve_backend
from .cache import DEFAULT_LRU_SIZE, TieredCache, stage_cache_for

#: Anything run_many accepts as one evaluation request.
RunItem = Union[Scenario, Job]

#: Progress callback: ``(done, total, record)`` per completed item.
ProgressCallback = Callable[[int, int, dict], None]

#: Longest a batch keeps completed records and stage memos queued before
#: writing them: a killed process loses at most about this much work.
COMMIT_INTERVAL_S = 1.0


#: Bound of the per-process pipeline memo: one :class:`~repro.api.Pipeline`
#: per (stage root, evaluation engine) an evaluation used lately.
PIPELINE_MEMO_SIZE = 16


@lru_cache(maxsize=PIPELINE_MEMO_SIZE)
def _pipeline(stage_root: Optional[str], sim_engine: str):
    """The process's pipeline for one stage root and evaluation engine.

    A :class:`~repro.api.Pipeline` is stateless, so one instance serves
    every thread (the thread backend, the service's workers); each pool
    worker process has its own, as it has its own stage memo.
    """
    from ..api.pipeline import Pipeline  # lazy: ``import repro`` stays lean

    cache = stage_cache_for(stage_root) if stage_root is not None else None
    return Pipeline(stage_cache=cache, engine=sim_engine)


def evaluate_job(
    job: Job, stage_root: Optional[str] = None, sim_engine: str = "fast"
):
    """Evaluate one job (top-level and picklable: safe to ship to workers).

    Runs the job's adopted scenario through the ``repro.api`` pipeline
    (whatever its objective: the objective never reaches a metric), so
    the engine shares one evaluation path with every other consumer —
    including workloads registered via ``@register_workload``.  Returns
    the pipeline's own :class:`~repro.api.RunResult`: the backends'
    :func:`~repro.sweep.store.point_to_record` builds the record from
    its eight metric attributes, and only records leave the process.

    Args:
        job: The design point to evaluate.
        stage_root: Cache directory of the process-wide
            :class:`~repro.engine.cache.StageCache` memoizing the
            physical and workload stages (``None`` disables stage
            memoization).  Passed as a plain string so the engine can
            ship it to pool workers via :func:`functools.partial`; each
            worker then shares one memo per cache directory.
        sim_engine: The pipeline's evaluation engine (``"fast"`` or
            ``"analytic"``), shipped to workers the same way.
    """
    return _pipeline(stage_root, sim_engine).run(job.scenario())


@dataclass(frozen=True)
class EngineStats:
    """Bookkeeping of one engine batch."""

    total: int
    cached: int
    evaluated: int
    failed: int
    duration_s: float
    memory_hits: int = 0
    disk_hits: int = 0

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.total} jobs: {self.cached} cached "
            f"({self.memory_hits} memory, {self.disk_hits} disk), "
            f"{self.evaluated} evaluated, {self.failed} failed "
            f"in {self.duration_s:.2f}s"
        )


@dataclass
class EngineOutcome:
    """Materialized results of one batch, in (deduplicated) input order."""

    jobs: list[Job]
    records: list[dict]
    stats: EngineStats

    @property
    def ok_records(self) -> list[dict]:
        """Successful records only."""
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def failures(self) -> list[dict]:
        """Failure records only."""
        return [r for r in self.records if r["status"] != "ok"]

    def points(self):
        """Design points of the successful records, in job order."""
        from ..sweep.store import record_to_point

        return [record_to_point(r) for r in self.ok_records]


class Engine:
    """Batched, cached, backend-pluggable scenario evaluator.

    Args:
        backend: Registered backend name (``serial``/``thread``/
            ``process`` built in), an :class:`ExecutionBackend` class or
            instance, or ``None`` (the default) for ``process`` when
            ``workers > 1`` and ``serial`` otherwise — so a plain
            ``Engine(workers=8)`` actually uses its workers, and a worker
            process that dies costs a requeue of its jobs, not the batch.
        workers: Worker count for the ``thread`` and ``process`` backends
            (0 = one per core).
        cache: Persistent tier — a :class:`ResultCache`, a ready
            :class:`TieredCache`, or ``None`` for in-memory-only caching.
        lru_size: Bound of the in-memory tier (0 disables it).
        evaluate: Evaluation function ``evaluate(job)`` (must pickle,
            as a top-level callable, for ``process`` workers started by
            ``spawn`` or ``forkserver``).  It may
            return any object with the eight metric attributes
            :func:`~repro.sweep.store.point_to_record` reads — a
            :class:`~repro.api.RunResult`, as the default
            :func:`evaluate_job` does, or a
            :class:`~repro.core.explorer.DesignPoint`.
        store: Optional append-only audit log receiving every record,
            cache hits included.
        on_result: Optional default progress callback, called as
            ``on_result(done, total, record)`` after every completion.
        mp_context: Multiprocessing context for the ``process`` backend
            (``None``: the platform's default start method).
        trace: Arm :mod:`repro.obs.trace` for this process — ``True``
            uses the default sink (or ``REPRO_TRACE_FILE``), a path
            redirects it.  ``None`` (default) leaves the ambient state
            alone, so ``REPRO_TRACE=1`` keeps working and a disarmed
            engine adds a single boolean check per span site.
        stage_cache: Memoize the pipeline's physical and workload stages
            in a :class:`~repro.engine.cache.StageCache` rooted at the
            disk cache's directory (the default).  Only applies to the
            default :func:`evaluate_job` with a persistent cache — a K
            kernels x A archs sweep then implements each architecture
            exactly once.  Pass ``False`` to evaluate both stages per
            job.
        sim_engine: Evaluation engine: ``"fast"`` simulates,
            ``"analytic"`` serves calibrated tier-0 predictions.  Every
            item is keyed for it (pre-built jobs included), and the
            default :func:`evaluate_job` receives it with ``stage_root``,
            so it reaches every backend's workers.
    """

    def __init__(
        self,
        backend: Union[str, ExecutionBackend, None] = None,
        workers: int = 0,
        cache: Union[ResultCache, TieredCache, None] = None,
        lru_size: int = DEFAULT_LRU_SIZE,
        evaluate: Callable[[Job], object] = evaluate_job,
        store: Optional[ResultStore] = None,
        on_result: Optional[ProgressCallback] = None,
        mp_context=None,
        trace: Union[bool, str, Path, None] = None,
        stage_cache: bool = True,
        sim_engine: str = "fast",
    ) -> None:
        self.sim_engine = check_engine(sim_engine)
        self.backend = resolve_backend(
            backend, workers=workers, mp_context=mp_context
        )
        if trace:
            _trace.enable(None if trace is True else trace)
        if isinstance(cache, TieredCache):
            self.cache = cache
        else:
            self.cache = TieredCache(disk=cache, lru_size=lru_size)
        self.evaluate = evaluate
        self.stage_root: Optional[str] = None
        if evaluate is evaluate_job:
            if stage_cache and self.cache.disk is not None:
                self.stage_root = str(self.cache.disk.root)
            # partial() keeps the evaluate picklable: pool workers get
            # the root as a string and build their own process-wide memo.
            self.evaluate = partial(
                evaluate, stage_root=self.stage_root, sim_engine=sim_engine
            )
        self.store = store
        self.on_result = on_result

    def stage_counters(self) -> Optional[dict[str, int]]:
        """This process's stage-cache counters, or ``None`` if disabled.

        Pool workers keep their own counters and flush them at exit;
        this process's deltas reach the cache directory's ``stats.json``
        sidecar with each record-tier flush, and ``repro cache stats``
        aggregates them.
        """
        if self.stage_root is None:
            return None
        return stage_cache_for(self.stage_root).counters()

    def job_of(self, item: RunItem) -> Job:
        """``item`` as a job keyed for this engine's evaluation tier (a
        job already keyed for it is returned as is)."""
        if isinstance(item, Job):
            if item.engine == self.sim_engine:
                return item
            item = item.scenario()
        elif not isinstance(item, Scenario):
            raise TypeError(
                f"engine items must be Scenario or Job, got {type(item).__name__}"
            )
        return Job.from_scenario(item, self.sim_engine)

    def run_many(
        self,
        items: Iterable[RunItem],
        on_result: Optional[ProgressCallback] = None,
    ) -> Iterator[tuple[Job, dict]]:
        """Stream ``(job, record)`` pairs as evaluations complete.

        Duplicate content addresses are evaluated once.  Cache hits are
        yielded first (in input order, ``source == "cache"``); the rest
        stream back in completion order (``source == "evaluated"``).
        Failures surface as failure records — never exceptions — and
        stay out of the cache, so a re-run retries exactly them.

        New records and this process's stage memos are group-committed:
        they are queued while the batch runs and each queue reaches disk
        as one locked append when the batch ends, when the generator is
        closed (Ctrl-C, or an exception in the consumer or callback),
        and before a record is yielded once :data:`COMMIT_INTERVAL_S`
        has passed since the last commit.  So everything yielded is on
        disk once the batch is over, and a killed process loses at most
        about a second of evaluations.
        """
        jobs: dict[str, Job] = {}
        for item in items:
            job = self.job_of(item)
            jobs.setdefault(job.key, job)

        # Adopt anything other writers (parallel engines, service
        # workers, cache merges) appended to the shared disk tier since
        # we last looked, so their evaluations serve as cache hits here.
        self.cache.refresh()
        callback = on_result if on_result is not None else self.on_result
        total = len(jobs)
        done = 0
        pending: list[Job] = []
        batch_span = _trace.span("engine.run_many", total=total)
        stores = [self.cache]
        if self.stage_root is not None:  # memos reach disk before records
            stores.insert(0, stage_cache_for(self.stage_root))
        for store in stores:
            store.open_batch()
        committed = time.monotonic()
        try:
            with batch_span:
                for key, job in jobs.items():
                    cached = self.cache.get(key)
                    if cached is not None and cached.get("status") == "ok":
                        record = {**cached, "source": "cache"}
                        done += 1
                        self._emit(record, done, total, callback)
                        yield job, record
                    else:
                        pending.append(job)
                batch_span.set(cached=done, pending=len(pending))

                backend_span = _trace.span(
                    "engine.backend",
                    backend=getattr(
                        self.backend, "name", type(self.backend).__name__
                    ),
                    jobs=len(pending),
                )
                with backend_span:
                    for raw in self.backend.run(self.evaluate, pending):
                        if raw["status"] == "ok":
                            self.cache.put(raw)
                        now = time.monotonic()
                        if now - committed >= COMMIT_INTERVAL_S:
                            for store in stores:
                                store.commit()
                            committed = now
                        record = {**raw, "source": "evaluated"}
                        done += 1
                        self._emit(record, done, total, callback)
                        yield jobs[record["key"]], record
        finally:
            for store in stores:
                store.commit(close=True)
            self.cache.flush_stats()  # one sidecar merge for every tier

    def _emit(
        self,
        record: dict,
        done: int,
        total: int,
        callback: Optional[ProgressCallback],
    ) -> None:
        if self.store is not None:
            self.store.append(record)
        if callback is not None:
            callback(done, total, record)

    def run(
        self,
        items: Iterable[RunItem],
        on_result: Optional[ProgressCallback] = None,
    ) -> EngineOutcome:
        """Materialized :meth:`run_many`: records in deduplicated input order."""
        t0 = time.perf_counter()
        memory0, disk0 = self.cache.memory_hits, self.cache.disk_hits
        ordered: list[Job] = []
        seen: set[str] = set()
        for item in items:
            job = self.job_of(item)
            if job.key not in seen:
                seen.add(job.key)
                ordered.append(job)
        by_key = {
            job.key: record
            for job, record in self.run_many(ordered, on_result=on_result)
        }
        records = [by_key[job.key] for job in ordered]
        evaluated = sum(1 for r in records if r["source"] == "evaluated")
        stats = EngineStats(
            total=len(records),
            cached=len(records) - evaluated,
            evaluated=evaluated,
            failed=sum(1 for r in records if r["status"] != "ok"),
            duration_s=time.perf_counter() - t0,
            memory_hits=self.cache.memory_hits - memory0,
            disk_hits=self.cache.disk_hits - disk0,
        )
        return EngineOutcome(jobs=ordered, records=records, stats=stats)

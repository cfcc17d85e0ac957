"""Sweep execution: a compatibility shim over :mod:`repro.engine`.

Historically this module owned its own ``ProcessPoolExecutor``, worker
initializer, and cache wiring.  That machinery now lives in the shared
:class:`~repro.engine.Engine` (pluggable backends, two-tier cache,
streamed results), and :class:`SweepExecutor` is a thin adapter kept for
its stable surface: same constructor, same :class:`SweepOutcome` with
records in job order, same cache keys, same failure-record semantics —
a failed job is reported but never cached, so re-running the same spec
retries exactly the failures.  ``workers <= 1`` still means the serial
in-process path, bit-identical to the parallel one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from ..api.scenario import check_engine
from ..core.explorer import DesignPoint
from .cache import ResultCache
from .spec import Job, SweepSpec
from .store import ResultStore, record_to_point


def evaluate_job(
    job: Job, stage_root: Optional[str] = None, sim_engine: str = "fast"
) -> DesignPoint:
    """Evaluate one job (top-level and picklable: safe to ship to workers).

    The legacy form of :func:`repro.engine.core.evaluate_job`: the same
    evaluation, returned as a :class:`DesignPoint` (the engine's returns
    the pipeline's :class:`~repro.api.RunResult`; both serialize to the
    same record).  ``stage_root`` keys the per-process stage memo and
    ``sim_engine`` picks the evaluation tier.
    """
    from ..engine.core import evaluate_job as _evaluate

    result = _evaluate(job, stage_root=stage_root, sim_engine=sim_engine)
    return result.to_design_point()


evaluate_job.supports_stage_root = True  # type: ignore[attr-defined]


@dataclass(frozen=True)
class SweepStats:
    """Bookkeeping of one executor run."""

    total: int
    cached: int
    evaluated: int
    failed: int
    duration_s: float

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.total} jobs: {self.cached} cached, "
            f"{self.evaluated} evaluated, {self.failed} failed "
            f"in {self.duration_s:.2f}s"
        )


@dataclass
class SweepOutcome:
    """Results of one executor run, in job order."""

    records: list[dict]
    stats: SweepStats
    jobs: list[Job] = field(default_factory=list)

    @property
    def ok_records(self) -> list[dict]:
        """Successful records only."""
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def failures(self) -> list[dict]:
        """Failure records only."""
        return [r for r in self.records if r["status"] != "ok"]

    def points(self) -> list[DesignPoint]:
        """Design points of the successful records, in job order."""
        return [record_to_point(r) for r in self.ok_records]


class SweepExecutor:
    """Cached, sharded, resumable runner of sweep jobs.

    A stable façade over :class:`repro.engine.Engine`: all parallelism
    lives in the engine's execution backends, all caching in its
    two-tier cache.

    Args:
        cache: Result cache; ``None`` disables persistent caching
            (everything re-evaluates on a fresh executor).
        workers: Worker count. ``0`` or ``1`` runs serially in-process
            (unless an explicit ``backend`` says otherwise).
        chunksize: Jobs per worker chunk for chunking backends; defaults
            to an even split with
            :data:`~repro.engine.backends.CHUNKS_PER_WORKER` chunks per
            worker.
        evaluate: Evaluation function (must be a picklable top-level
            callable for process backends).  Injectable for testing and
            for alternative evaluation models.
        store: Optional append-only log receiving every record of every
            run, cache hits included.
        mp_context: Optional multiprocessing context for process
            backends (e.g. ``multiprocessing.get_context("spawn")``);
            defaults to the platform default.
        backend: Registered execution-backend name or instance; ``None``
            keeps the historical behavior (``process`` when
            ``workers > 1``, ``serial`` otherwise).
        on_result: Optional progress callback,
            ``on_result(done, total, record)`` per completed job.
        sim_engine: Evaluation engine (``"fast"`` or ``"analytic"``),
            forwarded to :class:`~repro.engine.Engine`.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: int = 0,
        chunksize: Optional[int] = None,
        evaluate: Callable[[Job], DesignPoint] = evaluate_job,
        store: Optional[ResultStore] = None,
        mp_context=None,
        backend: Union[str, object, None] = None,
        on_result: Optional[Callable[[int, int, dict], None]] = None,
        sim_engine: str = "fast",
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if chunksize is not None and chunksize <= 0:
            raise ValueError("chunksize must be positive")
        self.sim_engine = check_engine(sim_engine)
        self.cache = cache
        self.workers = workers
        self.chunksize = chunksize
        self.evaluate = evaluate
        self.store = store
        self.mp_context = mp_context
        self.backend = backend
        self.on_result = on_result

    def _make_engine(self):
        """A fresh engine from the *current* attribute values.

        Built per :meth:`run`, not in ``__init__``, so legacy callers
        that mutate the executor after construction (``ex.workers = 8``,
        ``ex.evaluate = fake``) keep taking effect, exactly as they did
        when this module owned the pool.  The store also stays out of
        the engine: the shim preserves the legacy append contract (job
        order, duplicates included) rather than completion order.
        """
        from ..engine.core import Engine

        return Engine(
            backend=self.backend,
            workers=self.workers,
            cache=self.cache,
            evaluate=self.evaluate,
            mp_context=self.mp_context,
            chunksize=self.chunksize,
            on_result=self.on_result,
            sim_engine=self.sim_engine,
        )

    def run(self, spec: SweepSpec | Iterable[Job]) -> SweepOutcome:
        """Execute a sweep: serve cache hits, evaluate the rest.

        Failed jobs are reported but not cached, so re-running the same
        spec retries exactly the failures (plus any genuinely new jobs).
        """
        engine = self._make_engine()
        items = spec.jobs() if isinstance(spec, SweepSpec) else spec
        jobs = [engine.job_of(item) for item in items]  # keyed for its tier
        t0 = time.perf_counter()

        by_key = {job.key: record for job, record in engine.run_many(jobs)}
        records = [by_key[job.key] for job in jobs]
        if self.store is not None:
            for record in records:
                self.store.append(record)

        evaluated = sum(1 for r in records if r["source"] == "evaluated")
        failed = sum(1 for r in records if r["status"] != "ok")
        stats = SweepStats(
            total=len(jobs),
            cached=len(jobs) - evaluated,
            evaluated=evaluated,
            failed=failed,
            duration_s=time.perf_counter() - t0,
        )
        return SweepOutcome(records=records, stats=stats, jobs=jobs)

"""One pluggable execution layer under explorer, sweep, and search.

Every consumer that evaluates design points in bulk — the serial
:class:`~repro.core.explorer.Explorer`, ``repro sweep``, the
``repro.search`` driver, the service, and the experiment harness — runs
through one :class:`Engine`, so batching, caching, and parallelism are
implemented exactly once:

* :mod:`~repro.engine.backends` — the :class:`ExecutionBackend` plugin
  registry (``@register_backend``; the fifth registry) holding the
  ``serial``, ``thread``, and ``process`` backends; ``process`` runs
  supervised worker processes, so a worker that dies or hangs costs a
  requeue of its jobs, not the batch;
* :mod:`~repro.engine.cache` — the caching tiers: a bounded in-memory
  :class:`LRUCache` layered over the content-addressed on-disk
  :class:`~repro.sweep.cache.ResultCache`, plus the :class:`StageCache`
  memoizing the pipeline's physical and workload stages independently,
  with sidecar hit counters and the ``repro cache`` maintenance helpers;
* :mod:`~repro.engine.core` — :class:`Engine` itself, whose
  :meth:`~Engine.run_many` streams ``(job, record)`` pairs as they
  complete, each evaluation under a per-item error trap.

Layer stack::

    arch / physical / kernels        the models
      -> repro.api                   Scenario + Pipeline + registries
        -> repro.engine              batched, cached, parallel execution
          -> explorer / sweep / search / experiments / CLI

Quick start::

    from repro.engine import Engine
    from repro.sweep import ResultCache, SweepSpec

    engine = Engine(backend="thread", workers=8,
                    cache=ResultCache(".sweep-cache"))
    for job, record in engine.run_many(SweepSpec().jobs()):
        print(job.label, record["status"], record["source"])
"""

from .backends import (
    BACKENDS,
    CHUNKS_PER_WORKER,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    run_one,
)
from .cache import (
    DEFAULT_LRU_SIZE,
    LRUCache,
    StageCache,
    TieredCache,
    cache_clear,
    cache_gc,
    cache_stats,
    merge_cache_dirs,
    stage_cache_for,
)
from .core import Engine, EngineOutcome, EngineStats, evaluate_job

__all__ = [
    "BACKENDS",
    "CHUNKS_PER_WORKER",
    "DEFAULT_LRU_SIZE",
    "Engine",
    "EngineOutcome",
    "EngineStats",
    "ExecutionBackend",
    "LRUCache",
    "ProcessBackend",
    "SerialBackend",
    "StageCache",
    "ThreadBackend",
    "TieredCache",
    "available_backends",
    "cache_clear",
    "cache_gc",
    "cache_stats",
    "evaluate_job",
    "get_backend",
    "merge_cache_dirs",
    "register_backend",
    "resolve_backend",
    "run_one",
    "stage_cache_for",
]

"""MemPool-3D reproduction library.

Reproduces "MemPool-3D: Boosting Performance and Efficiency of Shared-L1
Memory Many-Core Clusters with 3D Integration" (DATE 2022): the MemPool
architecture and cycle-level simulator, a 28 nm physical-implementation
model with 2D and Macro-3D flows, the blocked-matmul kernel study, and the
experiment harness regenerating every table and figure of the paper.

The unified programmatic entry point is the ``repro.api`` façade::

    import repro

    result = repro.run(repro.Scenario(capacity_mib=4, flow="3D"))
    print(result.frequency_mhz, result.edp)

Every exported name resolves lazily (PEP 562, :mod:`repro._lazy`):
``import repro`` imports none of the subpackages, and the first access
of a name (``repro.Scenario``, ``from repro import Engine``) imports
the one module that defines it.  So a process loads only what its
requests use: numpy and the fast simulator load on the first simulated
point, never for the closed-form matmul model.
"""

from ._lazy import lazy_exports

__version__ = "2.8.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core.config": (
        "ArchParams", "CAPACITIES_MIB", "Flow", "MemPoolConfig",
        "config_by_name", "paper_configurations",
    ),
    "core.metrics": (
        "GroupResult", "KernelMetrics", "NormalizedGroupResult", "normalize",
    ),
    "api": (
        "Pipeline", "RunResult", "Scenario", "available_flows",
        "available_objectives", "available_predictors", "available_workloads",
        "get_flow", "get_objective", "get_predictor", "get_workload",
        "paper_scenarios", "register_flow", "register_objective",
        "register_predictor", "register_workload", "run",
    ),
    "analytic": (
        "CalibrationRecord", "calibrate", "ensure_calibrated", "predict_cycles",
    ),
    "analysis": ("Finding", "analyze_paths", "available_lints", "register_lint"),
    "engine": (
        "Engine", "EngineOutcome", "EngineStats", "ExecutionBackend",
        "LRUCache", "TieredCache", "available_backends", "get_backend",
        "register_backend",
    ),
    "obs": ("StageProfiler", "render_html", "stamp_bench", "write_html"),
    "search": (
        "Choice", "FloatRange", "IntRange", "ParetoArchive", "SearchSpace",
        "Searcher", "Strategy", "available_strategies", "get_strategy",
        "paper_space", "register_strategy",
    ),
    "service": ("RemoteBackend", "ReproService"),
    "client": ("ServiceClient", "ServiceError"),
})
__all__ = ["__version__", *__all__]

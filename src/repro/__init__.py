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

``Scenario``, ``Pipeline``, ``RunResult``, ``run``, and the plugin
registry helpers (``register_flow``/``register_workload``/
``register_objective`` and their lookups) resolve lazily so that
``import repro`` stays light.
"""

from .core.config import (
    CAPACITIES_MIB,
    ArchParams,
    Flow,
    MemPoolConfig,
    config_by_name,
    paper_configurations,
)
from .core.metrics import GroupResult, KernelMetrics, NormalizedGroupResult, normalize

__version__ = "2.8.0"

#: Names re-exported lazily from the ``repro.api`` façade.
_API_EXPORTS = (
    "Pipeline",
    "RunResult",
    "Scenario",
    "available_flows",
    "available_objectives",
    "available_predictors",
    "available_workloads",
    "get_flow",
    "get_objective",
    "get_predictor",
    "get_workload",
    "paper_scenarios",
    "register_flow",
    "register_objective",
    "register_predictor",
    "register_workload",
    "run",
)

#: Names re-exported lazily from the ``repro.engine`` execution layer.
_ENGINE_EXPORTS = (
    "Engine",
    "EngineOutcome",
    "EngineStats",
    "ExecutionBackend",
    "LRUCache",
    "TieredCache",
    "available_backends",
    "get_backend",
    "register_backend",
)

#: Names re-exported lazily from the ``repro.service`` serving layer.
_SERVICE_EXPORTS = (
    "RemoteBackend",
    "ReproService",
)

#: Names re-exported lazily from the ``repro.client`` SDK.
_CLIENT_EXPORTS = (
    "ServiceClient",
    "ServiceError",
)

#: Names re-exported lazily from the ``repro.analytic`` tier-0 layer.
_ANALYTIC_EXPORTS = (
    "CalibrationRecord",
    "calibrate",
    "ensure_calibrated",
    "predict_cycles",
)

#: Names re-exported lazily from the ``repro.analysis`` lint layer.
_ANALYSIS_EXPORTS = (
    "Finding",
    "analyze_paths",
    "available_lints",
    "register_lint",
)

#: Names re-exported lazily from the ``repro.obs`` observability layer.
_OBS_EXPORTS = (
    "StageProfiler",
    "render_html",
    "stamp_bench",
    "write_html",
)

#: Names re-exported lazily from the ``repro.search`` optimizer.
_SEARCH_EXPORTS = (
    "Choice",
    "FloatRange",
    "IntRange",
    "ParetoArchive",
    "SearchSpace",
    "Searcher",
    "Strategy",
    "available_strategies",
    "get_strategy",
    "paper_space",
    "register_strategy",
)

__all__ = [
    "ArchParams",
    "CAPACITIES_MIB",
    "Flow",
    "GroupResult",
    "KernelMetrics",
    "MemPoolConfig",
    "NormalizedGroupResult",
    "config_by_name",
    "normalize",
    "paper_configurations",
    "__version__",
    *_API_EXPORTS,
    *_ANALYTIC_EXPORTS,
    *_ANALYSIS_EXPORTS,
    *_ENGINE_EXPORTS,
    *_OBS_EXPORTS,
    *_SEARCH_EXPORTS,
    *_SERVICE_EXPORTS,
    *_CLIENT_EXPORTS,
]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from . import api as module
    elif name in _ANALYTIC_EXPORTS:
        from . import analytic as module
    elif name in _ANALYSIS_EXPORTS:
        from . import analysis as module
    elif name in _ENGINE_EXPORTS:
        from . import engine as module
    elif name in _OBS_EXPORTS:
        from . import obs as module
    elif name in _SEARCH_EXPORTS:
        from . import search as module
    elif name in _SERVICE_EXPORTS:
        from . import service as module
    elif name in _CLIENT_EXPORTS:
        from . import client as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(
        set(globals())
        | set(_API_EXPORTS)
        | set(_ANALYTIC_EXPORTS)
        | set(_ANALYSIS_EXPORTS)
        | set(_ENGINE_EXPORTS)
        | set(_OBS_EXPORTS)
        | set(_SEARCH_EXPORTS)
        | set(_SERVICE_EXPORTS)
        | set(_CLIENT_EXPORTS)
    )

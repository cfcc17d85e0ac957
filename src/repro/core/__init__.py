"""The paper's primary contribution: configurations, partitioning, metrics.

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": (
        "ArchParams", "CAPACITIES_MIB", "Flow", "MemPoolConfig",
        "config_by_name", "paper_configurations",
    ),
    "explorer": ("DesignPoint", "Explorer", "OBJECTIVES"),
    "metrics": (
        "GroupResult", "KernelMetrics", "NormalizedGroupResult", "gain",
        "normalize",
    ),
    "partition": (
        "TilePartition", "adjusted_partition", "default_partition",
        "select_partition",
    ),
})

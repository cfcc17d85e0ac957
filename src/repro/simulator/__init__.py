"""Cycle-driven simulation engine and off-chip memory model.

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.  So the
off-chip memory model (:mod:`~repro.simulator.memsys`) loads without
the cluster or either simulator.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": (
        "Engine", "SIM_ENGINES", "SimulationResult", "SimulationTimeout",
        "run_cluster",
    ),
    "fast": ("FastEngine",),
    "memsys": (
        "DDR_CHANNEL_BYTES_PER_CYCLE", "OffChipMemory", "PAPER_BANDWIDTH_SWEEP",
    ),
    "trace": ("ClusterTrace", "collect_trace"),
})

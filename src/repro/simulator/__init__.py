"""Cycle-driven simulation engine and off-chip memory model."""

from .dma import DMACore, DMARequest, dma_fill
from .engine import (
    Engine,
    SIM_ENGINES,
    SimulationResult,
    SimulationTimeout,
    run_cluster,
)
from .fast import FastEngine
from .memsys import (
    DDR_CHANNEL_BYTES_PER_CYCLE,
    OffChipMemory,
    PAPER_BANDWIDTH_SWEEP,
)
from .trace import ClusterTrace, collect_trace

__all__ = [
    "ClusterTrace", "DDR_CHANNEL_BYTES_PER_CYCLE", "DMACore", "DMARequest",
    "Engine", "FastEngine", "OffChipMemory", "PAPER_BANDWIDTH_SWEEP",
    "SIM_ENGINES", "SimulationResult", "SimulationTimeout", "collect_trace",
    "dma_fill", "run_cluster",
]

"""MemPool architecture substrate: cores, tiles, groups, cluster.

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.  Lazy
``arch`` and ``interconnect`` packages also keep the
:mod:`~repro.arch.cluster` <-> :mod:`~repro.interconnect.routing` pair
free of an import cycle, whichever of the two loads first.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cluster": ("Barrier", "MemPoolCluster"),
    "group": ("Group",),
    "icache": ("InstructionCache",),
    "isa": ("Instruction", "Op", "Program", "ProgramBuilder"),
    "memory_map": ("BankAddress", "MemoryMap"),
    "scoreboard": ("ScoreboardSnitchCore",),
    "snitch": ("CoreState", "CoreStats", "SnitchCore"),
    "spm": ("BankArray", "SPMBank", "TileSPM"),
    "tile": ("Tile", "TileInventory"),
})

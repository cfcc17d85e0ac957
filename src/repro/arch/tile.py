"""MemPool tile: 4 Snitch cores, 16 SPM banks, 2 KiB I$, local crossbar.

The tile is the replicated unit of MemPool (Figure 1 of the paper): four
cores and sixteen single-port SPM banks joined by a fully connected
logarithmic crossbar, a shared four-bank instruction cache, and four remote
ports through which other tiles reach the local banks.

This module provides the structural/simulation view of the tile; the
physical view (areas, floorplans) lives in :mod:`repro.physical`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import ArchParams, DEFAULT_ARCH
from .icache import InstructionCache
from .spm import BankArray, SPMBank, TileSPM


@dataclass
class TilePortStats:
    """Traffic counters on the tile's request ports."""

    local_requests: int = 0
    remote_in_requests: int = 0
    remote_out_requests: int = 0


class Tile:
    """Structural tile model used by the cycle-level simulator.

    Args:
        tile_id: Flat tile index within the cluster.
        words_per_bank: SPM bank depth in 32-bit words.
        arch: Architectural parameters.
        banks: The cluster's bank array, whose banks ``tile_id *
            banks_per_tile`` on are this tile's; without one the tile
            gets an array of its own.
    """

    def __init__(
        self,
        tile_id: int,
        words_per_bank: int,
        arch: ArchParams = DEFAULT_ARCH,
        banks: BankArray | None = None,
    ) -> None:
        if tile_id < 0:
            raise ValueError("tile id must be non-negative")
        self.tile_id = tile_id
        self.arch = arch
        if banks is None:
            self.spm = TileSPM.build(arch.banks_per_tile, words_per_bank)
        else:
            self.spm = TileSPM(
                banks, tile_id * arch.banks_per_tile, arch.banks_per_tile
            )
        self.icache = InstructionCache(capacity_bytes=arch.icache_bytes_per_tile)
        self.port_stats = TilePortStats()

    @property
    def group_id(self) -> int:
        """Group this tile belongs to."""
        return self.tile_id // self.arch.tiles_per_group

    @property
    def local_tile_index(self) -> int:
        """Index of this tile within its group."""
        return self.tile_id % self.arch.tiles_per_group

    def bank(self, index: int) -> SPMBank:
        """Access one of the tile's SPM banks."""
        return self.spm.banks[index]

    def access(
        self, cycle: int, bank_index: int, offset: int, write: bool, value: int = 0,
        remote: bool = False,
    ) -> tuple[bool, int]:
        """Arbitrate and perform a bank access.

        Args:
            cycle: Current simulation cycle.
            bank_index: Bank within this tile.
            offset: Word offset within the bank.
            write: Store when True.
            value: Store data.
            remote: Whether the request came through a remote port.

        Returns:
            ``(granted, data)`` as in :meth:`repro.arch.spm.SPMBank.try_access`.
        """
        granted, data = self.spm.banks[bank_index].try_access(cycle, offset, write, value)
        if granted:
            if remote:
                self.port_stats.remote_in_requests += 1
            else:
                self.port_stats.local_requests += 1
        return granted, data


@dataclass
class TileInventory:
    """Static component counts of a tile, for the physical models.

    The interconnect master count includes the four cores' data ports and
    the four remote request ports; slaves are the sixteen SPM banks.
    """

    arch: ArchParams = field(default_factory=lambda: DEFAULT_ARCH)

    @property
    def crossbar_masters(self) -> int:
        """Request ports into the local crossbar."""
        return self.arch.cores_per_tile + self.arch.remote_ports_per_tile

    @property
    def crossbar_slaves(self) -> int:
        """Bank ports out of the local crossbar."""
        return self.arch.banks_per_tile

    @property
    def spm_macros(self) -> int:
        """SPM SRAM macros per tile."""
        return self.arch.banks_per_tile

    @property
    def icache_macros(self) -> int:
        """Instruction-cache SRAM macros per tile."""
        return self.arch.icache_banks_per_tile

"""MemPool group: 16 tiles joined by four radix-4 butterfly networks.

Within a group (Figure 2a), every core can reach every SPM bank within
three cycles.  Four 16x16 radix-4 butterfly networks carry the traffic:
the *local* interconnect serves tiles of the same group, while the *north*,
*northeast*, and *east* interconnects connect to the three other groups.
"""

from __future__ import annotations

from ..core.config import ArchParams, DEFAULT_ARCH
from ..interconnect.butterfly import ButterflyNetwork
from .spm import BankArray
from .tile import Tile

#: Names of the four per-group interconnect directions.
INTERCONNECT_DIRECTIONS = ("local", "north", "northeast", "east")


class Group:
    """Structural group model: 16 tiles plus the four butterflies.

    Args:
        group_id: Group index within the cluster.
        words_per_bank: SPM bank depth in words.
        arch: Architectural parameters.
        banks: The cluster's bank array (without one the group gets a
            cluster-sized array of its own).
    """

    def __init__(
        self,
        group_id: int,
        words_per_bank: int,
        arch: ArchParams = DEFAULT_ARCH,
        banks: BankArray | None = None,
    ) -> None:
        if not 0 <= group_id < arch.groups:
            raise ValueError("group id out of range")
        self.group_id = group_id
        self.arch = arch
        if banks is None:
            banks = BankArray(arch.num_banks, words_per_bank)
        base = group_id * arch.tiles_per_group
        self.tiles = [
            Tile(base + i, words_per_bank, arch, banks)
            for i in range(arch.tiles_per_group)
        ]
        self.interconnects = {
            name: ButterflyNetwork(ports=arch.tiles_per_group, radix=4)
            for name in INTERCONNECT_DIRECTIONS
        }

    def direction_to(self, other_group: int) -> str:
        """Which of the four interconnects reaches ``other_group``.

        Groups are arranged in a 2x2 grid (Figure 2b); the relative
        position (XOR of the 2-bit group ids) picks the direction:
        same group -> local, horizontal neighbour -> east, vertical ->
        north, diagonal -> northeast.
        """
        if not 0 <= other_group < self.arch.groups:
            raise ValueError("group id out of range")
        if self.arch.groups != 4:
            # Generalized clusters: treat any remote group as "east".
            return "local" if other_group == self.group_id else "east"
        relation = self.group_id ^ other_group
        return {0: "local", 1: "east", 2: "north", 3: "northeast"}[relation]

    def tile(self, local_index: int) -> Tile:
        """Tile by its index within this group."""
        return self.tiles[local_index]

    def total_interconnect_traffic(self) -> int:
        """Total requests routed through this group's butterflies."""
        return sum(net.stats.routed for net in self.interconnects.values())

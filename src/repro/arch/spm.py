"""Banked scratchpad memory with single-port conflict semantics.

Each MemPool tile holds 16 single-port SRAM banks.  A bank serves one
request per cycle; concurrent requests to the same bank in the same cycle
conflict and all but one are stalled.  This module provides the storage and
the per-cycle arbitration bookkeeping used by the cycle-level simulator, as
well as conflict statistics used to validate interleaving quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BankStats:
    """Per-bank access statistics."""

    reads: int = 0
    writes: int = 0
    conflicts: int = 0

    @property
    def accesses(self) -> int:
        """Total granted accesses."""
        return self.reads + self.writes


class SPMBank:
    """A single-port SRAM bank holding 32-bit words.

    The bank grants at most one access per cycle.  Callers must advance the
    bank's notion of time via :meth:`try_access` with the current cycle; a
    second access in the same cycle is refused and counted as a conflict.

    Only written words are stored; an untouched word reads as 0, so a
    bank costs nothing per word of capacity.
    """

    def __init__(self, words: int) -> None:
        if words <= 0:
            raise ValueError("bank must hold at least one word")
        self._words = words
        self._data: dict[int, int] = {}  # offset -> word
        self._busy_cycle = -1
        self.stats = BankStats()

    @property
    def words(self) -> int:
        """Bank capacity in words."""
        return self._words

    def try_access(self, cycle: int, offset: int, write: bool, value: int = 0) -> tuple[bool, int]:
        """Attempt a single-cycle access.

        Args:
            cycle: Current simulation cycle.
            offset: Word offset within the bank.
            write: True for a store, False for a load.
            value: Word to store when ``write`` is set.

        Returns:
            ``(granted, data)`` — ``granted`` is False on a bank conflict,
            in which case the requester must retry next cycle; ``data`` is
            the loaded word (0 for writes).

        Raises:
            IndexError: If ``offset`` is out of range.
        """
        if not 0 <= offset < self._words:
            raise IndexError(f"offset {offset} outside bank of {self._words} words")
        if cycle == self._busy_cycle:
            self.stats.conflicts += 1
            return False, 0
        self._busy_cycle = cycle
        if write:
            self._data[offset] = value & 0xFFFFFFFF
            self.stats.writes += 1
            return True, 0
        self.stats.reads += 1
        return True, self._data.get(offset, 0)

    def peek(self, offset: int) -> int:
        """Read a word without simulating a port access (for test setup)."""
        if not 0 <= offset < self._words:
            raise IndexError(f"offset {offset} outside bank of {self._words} words")
        return self._data.get(offset, 0)

    def poke(self, offset: int, value: int) -> None:
        """Write a word without simulating a port access (for test setup)."""
        if not 0 <= offset < self._words:
            raise IndexError(f"offset {offset} outside bank of {self._words} words")
        self._data[offset] = value & 0xFFFFFFFF

    # -- array-view accessors (fast simulator) -------------------------
    def export_words(self) -> list[int]:
        """A copy of the bank contents (no simulated port traffic)."""
        out = [0] * self._words
        for offset, word in self._data.items():
            out[offset] = word
        return out

    def import_words(self, words) -> None:
        """Replace the bank contents in bulk (no simulated port traffic).

        Raises:
            ValueError: If ``words`` does not match the bank depth.
        """
        values = [int(v) & 0xFFFFFFFF for v in words]
        if len(values) != self._words:
            raise ValueError(
                f"expected {self._words} words, got {len(values)}"
            )
        self._data = {offset: word for offset, word in enumerate(values) if word}

    @property
    def busy_cycle(self) -> int:
        """Cycle of the last granted access (arbitration state)."""
        return self._busy_cycle

    @busy_cycle.setter
    def busy_cycle(self, cycle: int) -> None:
        self._busy_cycle = cycle


@dataclass
class TileSPM:
    """The 16-bank scratchpad of one tile."""

    banks: list[SPMBank] = field(default_factory=list)

    @classmethod
    def build(cls, banks_per_tile: int, words_per_bank: int) -> "TileSPM":
        """Construct a tile SPM with uniform banks."""
        if banks_per_tile <= 0:
            raise ValueError("need at least one bank")
        return cls(banks=[SPMBank(words_per_bank) for _ in range(banks_per_tile)])

    @property
    def total_words(self) -> int:
        """Aggregate capacity in words."""
        return sum(bank.words for bank in self.banks)

    def conflict_rate(self) -> float:
        """Fraction of attempted accesses that conflicted."""
        granted = sum(b.stats.accesses for b in self.banks)
        conflicts = sum(b.stats.conflicts for b in self.banks)
        attempts = granted + conflicts
        if not attempts:
            return 0.0
        return conflicts / attempts

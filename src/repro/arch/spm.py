"""Banked scratchpad memory with single-port conflict semantics.

Each MemPool tile holds 16 single-port SRAM banks.  A bank serves one
request per cycle; concurrent requests to the same bank in the same cycle
conflict and all but one are stalled.  This module provides the storage and
the per-cycle arbitration bookkeeping used by the cycle-level simulator, as
well as conflict statistics used to validate interleaving quality.

A cluster's SPM is one structure-of-arrays :class:`BankArray`: a dict of
the words ever written, keyed by the global word index
``offset * num_banks + flat_bank`` (under the interleaved memory map,
the byte address // 4), and flat per-bank lists of busy cycles and
counters.  An untouched word reads as 0, so the SPM costs nothing per
word of capacity, and setting up a cluster allocates four lists instead
of one object per bank.  :class:`SPMBank` and :class:`TileSPM` are views
of one bank and of one tile's banks.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK = 0xFFFFFFFF


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


class BankArray:
    """The words, busy cycles and counters of ``num_banks`` banks.

    Attributes:
        num_banks: Banks in the array.
        words_per_bank: Depth of every bank in 32-bit words.
        words: Written words by global index ``offset * num_banks +
            bank``; a missing index reads as 0.
        busy: Per bank, the cycle of its last granted access (-1: none).
        reads: Per bank, granted loads.
        writes: Per bank, granted stores.
        conflicts: Per bank, refused same-cycle accesses.
    """

    __slots__ = ("num_banks", "words_per_bank", "words", "busy", "reads",
                 "writes", "conflicts")

    def __init__(self, num_banks: int, words_per_bank: int) -> None:
        if num_banks <= 0:
            raise ValueError("need at least one bank")
        if words_per_bank <= 0:
            raise ValueError("bank must hold at least one word")
        self.num_banks = num_banks
        self.words_per_bank = words_per_bank
        self.words: dict[int, int] = {}
        self.busy = [-1] * num_banks
        self.reads = [0] * num_banks
        self.writes = [0] * num_banks
        self.conflicts = [0] * num_banks

    @property
    def total_words(self) -> int:
        """Capacity of the array in words."""
        return self.num_banks * self.words_per_bank


class SPMBank:
    """A single-port SRAM bank holding 32-bit words.

    The bank grants at most one access per cycle.  Callers must advance the
    bank's notion of time via :meth:`try_access` with the current cycle; a
    second access in the same cycle is refused and counted as a conflict.

    A bank is a view of one bank of a :class:`BankArray`: ``SPMBank(words)``
    owns a one-bank array, :meth:`view` looks into a shared one.  Only
    written words are stored, in the array's word dict; an untouched
    word reads as 0.
    """

    __slots__ = ("_array", "_index")

    def __init__(self, words: int) -> None:
        self._array = BankArray(1, words)
        self._index = 0

    @classmethod
    def view(cls, array: BankArray, index: int) -> SPMBank:
        """Bank ``index`` of ``array``."""
        bank = cls.__new__(cls)
        bank._array = array
        bank._index = index
        return bank

    @property
    def words(self) -> int:
        """Bank capacity in words."""
        return self._array.words_per_bank

    def _key(self, offset: int) -> int:
        """The array's word index of ``offset``, range-checked."""
        array = self._array
        if not 0 <= offset < array.words_per_bank:
            raise IndexError(
                f"offset {offset} outside bank of {array.words_per_bank} words"
            )
        return offset * array.num_banks + self._index

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
        key = self._key(offset)
        array, index = self._array, self._index
        if cycle == array.busy[index]:
            array.conflicts[index] += 1
            return False, 0
        array.busy[index] = cycle
        if write:
            array.words[key] = value & _MASK
            array.writes[index] += 1
            return True, 0
        array.reads[index] += 1
        return True, array.words.get(key, 0)

    def peek(self, offset: int) -> int:
        """Read a word without simulating a port access (for test setup)."""
        return self._array.words.get(self._key(offset), 0)

    def poke(self, offset: int, value: int) -> None:
        """Write a word without simulating a port access (for test setup)."""
        self._array.words[self._key(offset)] = value & _MASK

    @property
    def stats(self) -> BankStats:
        """A snapshot of the bank's access counters."""
        array, index = self._array, self._index
        return BankStats(
            array.reads[index], array.writes[index], array.conflicts[index]
        )

    def export_words(self) -> list[int]:
        """A copy of the bank contents (no simulated port traffic)."""
        array = self._array
        get = array.words.get
        return [
            get(key, 0)
            for key in range(self._index, array.total_words, array.num_banks)
        ]

    def import_words(self, words) -> None:
        """Replace the bank contents in bulk (no simulated port traffic).

        Raises:
            ValueError: If ``words`` does not match the bank depth.
        """
        array = self._array
        values = [int(v) & _MASK for v in words]
        if len(values) != array.words_per_bank:
            raise ValueError(
                f"expected {array.words_per_bank} words, got {len(values)}"
            )
        store = array.words
        keys = range(self._index, array.total_words, array.num_banks)
        for key, word in zip(keys, values):
            if word:
                store[key] = word
            else:
                store.pop(key, None)

    @property
    def busy_cycle(self) -> int:
        """Cycle of the last granted access (arbitration state)."""
        return self._array.busy[self._index]


class TileSPM:
    """The banks of one tile: ``count`` banks of an array from ``first``.

    Args:
        array: The array holding the banks (the cluster's, or the tile's
            own).
        first: Array index of the tile's bank 0.
        count: Banks in the tile.
    """

    def __init__(self, array: BankArray, first: int, count: int) -> None:
        self.array = array
        self.first = first
        self.count = count
        self._banks: list[SPMBank] | None = None

    @classmethod
    def build(cls, banks_per_tile: int, words_per_bank: int) -> "TileSPM":
        """Construct a tile SPM with uniform banks in an array of its own."""
        return cls(BankArray(banks_per_tile, words_per_bank), 0, banks_per_tile)

    @property
    def banks(self) -> list[SPMBank]:
        """Views of the tile's banks, created on first use."""
        if self._banks is None:
            self._banks = [
                SPMBank.view(self.array, self.first + index)
                for index in range(self.count)
            ]
        return self._banks

    @property
    def total_words(self) -> int:
        """Aggregate capacity in words."""
        return self.count * self.array.words_per_bank

    def conflict_rate(self) -> float:
        """Fraction of attempted accesses that conflicted."""
        array = self.array
        span = slice(self.first, self.first + self.count)
        conflicts = sum(array.conflicts[span])
        attempts = sum(array.reads[span]) + sum(array.writes[span]) + conflicts
        if not attempts:
            return 0.0
        return conflicts / attempts

"""Tile instruction cache model.

Each MemPool tile has 2 KiB of L1 instruction cache shared by its four
cores, organized in banks.  The paper's kernel study measures compute
phases "with a hot instruction cache", so the performance-critical property
is the refill behaviour when a loop is first encountered and the hit
behaviour afterwards.  This model tracks cache lines with a FIFO refill
policy and charges a refill penalty on misses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class ICacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 1.0 when never accessed."""
        if not self.accesses:
            return 1.0
        return self.hits / self.accesses


class InstructionCache:
    """A small fully-associative-by-line FIFO instruction cache.

    MemPool's I$ is multi-banked and set-associative; at the fidelity needed
    for the kernel study (hot vs cold loops), a line-granular FIFO model
    with the right total capacity captures the behaviour: a loop whose body
    fits in the cache hits on every iteration after the first.
    """

    def __init__(
        self,
        capacity_bytes: int = 2048,
        line_bytes: int = 32,
        refill_penalty: int = 20,
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0:
            raise ValueError("capacity and line size must be positive")
        if capacity_bytes % line_bytes:
            raise ValueError("capacity must be a whole number of lines")
        if refill_penalty < 0:
            raise ValueError("refill penalty must be non-negative")
        self._num_lines = capacity_bytes // line_bytes
        self._line_bytes = line_bytes
        self._refill_penalty = refill_penalty
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.stats = ICacheStats()

    @property
    def num_lines(self) -> int:
        """Number of cache lines."""
        return self._num_lines

    @property
    def line_bytes(self) -> int:
        """Line size in bytes."""
        return self._line_bytes

    def fetch(self, pc: int) -> int:
        """Look up the line holding ``pc``.

        Returns:
            Extra stall cycles: 0 on a hit, the refill penalty on a miss.
        """
        if pc < 0:
            raise ValueError("pc must be non-negative")
        line = pc // self._line_bytes
        if line in self._lines:
            self.stats.hits += 1
            return 0
        self.stats.misses += 1
        if len(self._lines) >= self._num_lines:
            self._lines.popitem(last=False)
        self._lines[line] = None
        return self._refill_penalty

    def warm(self, start_pc: int, end_pc: int) -> None:
        """Pre-load all lines covering ``[start_pc, end_pc)`` (hot-cache setup)."""
        if end_pc < start_pc:
            raise ValueError("end must not precede start")
        first = start_pc // self._line_bytes
        last = (max(end_pc - 1, start_pc)) // self._line_bytes
        for line in range(first, last + 1):
            if len(self._lines) >= self._num_lines:
                self._lines.popitem(last=False)
            self._lines[line] = None

    def resident_lines(self) -> frozenset[int]:
        """The line indices currently cached (insertion state snapshot)."""
        return frozenset(self._lines)

    def flush(self) -> None:
        """Invalidate all lines (cold-cache setup)."""
        self._lines.clear()

    # -- array-view accessors (fast simulator) -------------------------
    def export_state(self) -> dict:
        """Resident lines in refill order, plus the hit/miss counters."""
        return {
            "lines": list(self._lines),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
        }

    def import_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`."""
        self._lines = OrderedDict.fromkeys(state["lines"])
        self.stats.hits = state["hits"]
        self.stats.misses = state["misses"]

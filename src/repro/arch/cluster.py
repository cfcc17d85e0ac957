"""MemPool cluster: four groups, 256 cores, shared barrier.

The top level of the architecture (Figure 2b): four identical groups with
point-to-point connections between them, plus a small amount of glue logic
(about five thousand cells in the paper's implementation).  The cluster
object owns the simulation-facing pieces: tiles (through groups), the
memory map, the fabric router, and the all-core barrier.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.config import ArchParams, MemPoolConfig
from ..interconnect.routing import FabricRouter
from .group import Group
from .icache import InstructionCache
from .isa import Program
from .memory_map import MemoryMap
from .snitch import SnitchCore
from .spm import BankArray
from .tile import Tile

_MASK = 0xFFFFFFFF


class Barrier:
    """A sense-reversing barrier over ``parties`` cores.

    Cores enter by calling :meth:`arrive`; the barrier releases every
    waiting core once all parties (that are still running) have arrived.
    """

    def __init__(self, parties: int) -> None:
        if parties <= 0:
            raise ValueError("barrier needs at least one party")
        self._parties = parties
        self._arrived: set[int] = set()
        self._generation = 0
        self.episodes = 0

    def arrive(self, core_id: int) -> Callable[[], bool]:
        """Register arrival; returns a predicate that is True when released."""
        generation = self._generation
        self._arrived.add(core_id)
        if len(self._arrived) >= self._parties:
            self._arrived.clear()
            self._generation += 1
            self.episodes += 1

        def released() -> bool:
            return self._generation != generation

        return released

    def reduce_parties(self, by: int = 1) -> None:
        """Remove halted cores from the barrier population."""
        self._parties = max(1, self._parties - by)
        if len(self._arrived) >= self._parties:
            self._arrived.clear()
            self._generation += 1
            self.episodes += 1

    # -- array-view accessors (fast simulator) -------------------------
    def export_state(self) -> dict:
        """Population, arrivals, generation and episode count as a dict."""
        return {
            "parties": self._parties,
            "arrived": set(self._arrived),
            "generation": self._generation,
            "episodes": self.episodes,
        }

    def import_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`; earlier release predicates
        read the restored generation."""
        self._parties = state["parties"]
        self._arrived = set(state["arrived"])
        self._generation = state["generation"]
        self.episodes = state["episodes"]


class MemPoolCluster:
    """Simulatable MemPool cluster.

    Args:
        config: Instance configuration (capacity; the flow field is
            irrelevant to the architectural model).
        arch: Optional architecture override (defaults to the config's).
    """

    def __init__(self, config: MemPoolConfig, arch: Optional[ArchParams] = None) -> None:
        self.config = config
        self.arch = arch or config.arch
        words_per_bank = config.bank_bytes // self.arch.word_bytes
        #: The whole SPM: every tile's banks are views into this array.
        self.spm = BankArray(self.arch.num_banks, words_per_bank)
        self.groups = [
            Group(g, words_per_bank, self.arch, self.spm)
            for g in range(self.arch.groups)
        ]
        self.memory_map = MemoryMap(config.spm_bytes, self.arch)
        self.router = FabricRouter(self.tiles, self.memory_map, self.arch)
        self.barrier = Barrier(self.arch.num_cores)
        self.cores: list[SnitchCore] = []

    @property
    def tiles(self) -> list[Tile]:
        """All tiles, ordered by flat tile id."""
        return [tile for group in self.groups for tile in group.tiles]

    def tile(self, flat_id: int) -> Tile:
        """Tile by flat cluster-wide index."""
        group, local = divmod(flat_id, self.arch.tiles_per_group)
        return self.groups[group].tiles[local]

    # -- program loading -------------------------------------------------
    def load_program(
        self,
        program: Program,
        num_cores: Optional[int] = None,
        use_icache: bool = True,
        hot_icache: bool = True,
        scoreboard: bool = False,
    ) -> None:
        """Instantiate cores running ``program`` (SPMD).

        Args:
            program: The program every core executes; cores branch on their
                hart id for work distribution.
            num_cores: Limit the active core count (defaults to all).
            use_icache: Route fetches through the per-tile I$.
            hot_icache: Pre-warm the caches, matching the paper's
                "hot instruction cache" measurement setup.
            scoreboard: Use the scoreboarded core model with non-blocking
                loads (Snitch's real behaviour) instead of the simpler
                blocking-load model.
        """
        from .scoreboard import ScoreboardSnitchCore

        count = num_cores if num_cores is not None else self.arch.num_cores
        if not 0 < count <= self.arch.num_cores:
            raise ValueError("core count out of range")
        self.cores = []
        self.barrier = Barrier(count)
        core_class = ScoreboardSnitchCore if scoreboard else SnitchCore
        for core_id in range(count):
            icache: Optional[InstructionCache] = None
            if use_icache:
                icache = self.tile(core_id // self.arch.cores_per_tile).icache
                if hot_icache:
                    icache.warm(0, len(program) * SnitchCore.PC_BYTES)
            core = core_class(
                core_id=core_id,
                program=program,
                memory_port=self.router.port_for_core(core_id),
                icache=icache,
            )
            core.barrier_arrive = self.barrier.arrive
            self.cores.append(core)

    # -- array-view accessors (fast simulator) -----------------------------
    def export_spm(self):
        """The whole SPM as one word-indexed numpy array.

        Index ``w`` of the result is the word at byte address ``4 * w``
        under the interleaved :class:`~repro.arch.memory_map.MemoryMap`,
        so ``export_spm()[address // 4]`` equals ``read_words(address, 1)[0]``.
        """
        import numpy as np

        store = self.spm.words
        out = np.zeros(self.spm.total_words, dtype=np.int64)
        out[np.fromiter(store.keys(), np.int64, len(store))] = np.fromiter(
            store.values(), np.int64, len(store)
        )
        return out

    def import_spm(self, words) -> None:
        """Inverse of :meth:`export_spm`: bulk-replace the SPM contents."""
        import numpy as np

        image = np.asarray(words, dtype=np.int64).reshape(
            self.memory_map.words_per_bank, self.arch.num_banks
        ).ravel() & _MASK
        written = np.flatnonzero(image)
        store = self.spm.words
        store.clear()
        store.update(zip(written.tolist(), image[written].tolist()))

    # -- memory helpers ----------------------------------------------------
    def _check_span(self, byte_address: int, count: int) -> None:
        """Validate a word-aligned span (same errors as ``decode``)."""
        if byte_address % self.arch.word_bytes:
            raise ValueError(f"address {byte_address:#x} is not word-aligned")
        for edge in (byte_address, byte_address + 4 * max(count - 1, 0)):
            if edge < 0 or edge >= self.memory_map.spm_bytes:
                raise ValueError(f"address {edge:#x} outside SPM")

    def write_words(self, byte_address: int, words: list[int]) -> None:
        """Back-door write into the SPM (test/workload setup).

        With 32-bit words the byte address // 4 is the word's index in
        the SPM's word dict, so a span is one dict update.
        """
        if not words:
            return
        if self.arch.word_bytes != 4:  # exotic widths: decode per word
            for i, word in enumerate(words):
                loc = self.memory_map.decode(byte_address + 4 * i)
                self.tile(loc.flat_tile(self.arch)).bank(loc.bank).poke(
                    loc.offset, word
                )
            return
        self._check_span(byte_address, len(words))
        first = byte_address // 4
        self.spm.words.update(zip(
            range(first, first + len(words)), [word & _MASK for word in words]
        ))

    def read_words(self, byte_address: int, count: int) -> list[int]:
        """Back-door read from the SPM; unwritten words read 0.

        With 32-bit words the byte address // 4 is the word's index in
        the SPM's word dict, so a span is one lookup per word.
        """
        if count <= 0:
            return []
        if self.arch.word_bytes != 4:  # exotic widths: decode per word
            return [
                self.tile(loc.flat_tile(self.arch)).bank(loc.bank).peek(
                    loc.offset
                )
                for loc in (
                    self.memory_map.decode(byte_address + 4 * i)
                    for i in range(count)
                )
            ]
        self._check_span(byte_address, count)
        get = self.spm.words.get
        first = byte_address // 4
        return [get(index, 0) for index in range(first, first + count)]

"""Property: the cluster's SPM store keeps the per-bank semantics.

Random sequences of back-door spans (``write_words``/``read_words``),
bank pokes, peeks and port accesses (``tile(t).bank(b)``, with
same-cycle conflicts), and ``export_spm``/``import_spm`` round trips,
on clusters of 1-8 MiB with 16 and with 8 banks per tile, must agree
with a model that keeps, per bank, a dict of written words, a busy
cycle and three counters: the layout the cluster had before its SPM
became one structure-of-arrays :class:`~repro.arch.spm.BankArray`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cluster import MemPoolCluster
from repro.core.config import ArchParams, Flow, MemPoolConfig

MASK = 0xFFFFFFFF


class BankModel:
    """One bank: written words by offset, busy cycle, counters."""

    def __init__(self) -> None:
        self.data: dict[int, int] = {}
        self.busy = -1
        self.reads = self.writes = self.conflicts = 0


class SPMModel:
    """The SPM as one :class:`BankModel` per bank, interleaved by word."""

    def __init__(self, arch: ArchParams, words_per_bank: int) -> None:
        self.bpt = arch.banks_per_tile
        self.ntiles = arch.num_tiles
        self.words_per_bank = words_per_bank
        self.banks = [BankModel() for _ in range(arch.num_banks)]
        self.total_words = len(self.banks) * words_per_bank

    def locate(self, word: int) -> tuple[BankModel, int]:
        """Bank and offset of a word index under the interleaved map."""
        bank = word % self.bpt
        tile = (word // self.bpt) % self.ntiles
        return (self.banks[tile * self.bpt + bank],
                word // (self.bpt * self.ntiles))

    def span_error(self, address: int, count: int) -> bool:
        """Whether a back-door span of ``count`` words is rejected."""
        last = address + 4 * (count - 1)
        return bool(address % 4) or not (
            0 <= address < 4 * self.total_words
            and 0 <= last < 4 * self.total_words
        )

    def image(self) -> np.ndarray:
        out = np.zeros(self.total_words, dtype=np.int64)
        for flat, bank in enumerate(self.banks):
            for offset, word in bank.data.items():
                out[offset * len(self.banks) + flat] = word
        return out


def _config(capacity: int, narrow: bool) -> MemPoolConfig:
    arch = ArchParams(banks_per_tile=8) if narrow else ArchParams()
    return MemPoolConfig(capacity_mib=capacity, flow=Flow.FLOW_2D, arch=arch)


def _word_index(total: int):
    """Low words, words near the top (and just past it), anywhere."""
    return st.one_of(
        st.integers(0, 40),
        st.integers(max(0, total - 40), total + 2),
        st.integers(0, total - 1),
    )


def _offset(words_per_bank: int):
    """Edge offsets of a bank, and the two just outside it."""
    return st.one_of(
        st.integers(0, 3),
        st.integers(words_per_bank - 3, words_per_bank - 1),
        st.sampled_from([-1, words_per_bank]),
    )


VALUE = st.integers(-(1 << 34), 1 << 34)


def _apply(op, cluster, model):
    """Run one operation on the cluster and the model; compare."""
    kind = op[0]
    if kind == "write":
        _, address, words = op
        if words and model.span_error(address, len(words)):
            with pytest.raises(ValueError):
                cluster.write_words(address, words)
            return
        cluster.write_words(address, words)
        for i, word in enumerate(words):
            bank, offset = model.locate(address // 4 + i)
            bank.data[offset] = word & MASK
    elif kind == "read":
        _, address, count = op
        if count > 0 and model.span_error(address, count):
            with pytest.raises(ValueError):
                cluster.read_words(address, count)
            return
        expected = []
        for i in range(max(count, 0)):
            bank, offset = model.locate(address // 4 + i)
            expected.append(bank.data.get(offset, 0))
        assert cluster.read_words(address, count) == expected
    elif kind in ("poke", "peek", "access"):
        tile, index, offset = op[1:4]
        bank = cluster.tile(tile).bank(index)
        state = model.banks[tile * model.bpt + index]
        if not 0 <= offset < model.words_per_bank:
            with pytest.raises(IndexError, match=f"offset {offset} outside"):
                if kind == "poke":
                    bank.poke(offset, 1)
                elif kind == "peek":
                    bank.peek(offset)
                else:
                    bank.try_access(0, offset, write=False)
            return
        if kind == "poke":
            bank.poke(offset, op[4])
            state.data[offset] = op[4] & MASK
        elif kind == "peek":
            assert bank.peek(offset) == state.data.get(offset, 0)
        else:
            _, _, _, _, cycle, write, value = op
            if cycle == state.busy:
                state.conflicts += 1
                expected = (False, 0)
            elif write:
                state.busy = cycle
                state.data[offset] = value & MASK
                state.writes += 1
                expected = (True, 0)
            else:
                state.busy = cycle
                state.reads += 1
                expected = (True, state.data.get(offset, 0))
            assert bank.try_access(cycle, offset, write, value) == expected
    else:  # "roundtrip": export, edit (or wipe) the image, import it
        _, wipe, edits = op
        image = cluster.export_spm()
        assert image.dtype == np.int64
        assert np.array_equal(image, model.image())
        if wipe:
            image[:] = 0
        for index, value in edits:
            image[index % model.total_words] = value
        cluster.import_spm(image)
        for bank in model.banks:
            bank.data = {}
        for word in np.flatnonzero(image & MASK).tolist():
            bank, offset = model.locate(word)
            bank.data[offset] = int(image[word]) & MASK


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 8),
    narrow=st.booleans(),
    data=st.data(),
)
def test_spm_store_matches_per_bank_model(capacity, narrow, data):
    config = _config(capacity, narrow)
    cluster = MemPoolCluster(config)
    arch = cluster.arch
    words_per_bank = config.bank_bytes // 4
    model = SPMModel(arch, words_per_bank)
    total = model.total_words
    address = st.builds(
        lambda word, skew: 4 * word + skew,
        _word_index(total),
        st.sampled_from([0, 0, 0, 0, 0, 0, 2]),
    )
    bank_op = st.tuples(
        st.integers(0, arch.num_tiles - 1),
        st.integers(0, arch.banks_per_tile - 1),
        _offset(words_per_bank),
    )
    operation = st.one_of(
        st.tuples(st.just("write"), address, st.lists(VALUE, max_size=24)),
        st.tuples(st.just("read"), address, st.integers(-1, 24)),
        bank_op.map(lambda loc: ("peek", *loc)),
        st.tuples(bank_op, VALUE).map(lambda t: ("poke", *t[0], t[1])),
        st.tuples(bank_op, st.integers(0, 3), st.booleans(), VALUE).map(
            lambda t: ("access", *t[0], t[1], t[2], t[3])
        ),
        st.tuples(
            st.just("roundtrip"),
            st.booleans(),
            st.lists(st.tuples(st.integers(0, total - 1), VALUE), max_size=4),
        ),
    )
    for op in data.draw(st.lists(operation, max_size=30)):
        _apply(op, cluster, model)

    # every bank's counters and busy cycle, and the whole image
    for tile in cluster.tiles:
        for index, bank in enumerate(tile.spm.banks):
            state = model.banks[tile.tile_id * model.bpt + index]
            assert vars(bank.stats) == {
                "reads": state.reads,
                "writes": state.writes,
                "conflicts": state.conflicts,
            }
            assert bank.busy_cycle == state.busy
    assert np.array_equal(cluster.export_spm(), model.image())

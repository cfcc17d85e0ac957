"""Tests for repro.arch.spm."""

import pytest

from repro.arch.spm import SPMBank, TileSPM


class TestSPMBank:
    def test_write_then_read(self):
        bank = SPMBank(words=8)
        granted, _ = bank.try_access(0, 3, write=True, value=0xDEADBEEF)
        assert granted
        granted, data = bank.try_access(1, 3, write=False)
        assert granted
        assert data == 0xDEADBEEF

    def test_single_port_conflict(self):
        bank = SPMBank(words=8)
        ok, _ = bank.try_access(0, 0, write=False)
        blocked, _ = bank.try_access(0, 1, write=False)
        assert ok and not blocked
        assert bank.stats.conflicts == 1

    def test_next_cycle_clears_conflict(self):
        bank = SPMBank(words=8)
        bank.try_access(0, 0, write=False)
        ok, _ = bank.try_access(1, 1, write=False)
        assert ok

    def test_values_masked_to_32_bits(self):
        bank = SPMBank(words=2)
        bank.poke(0, -1)
        assert bank.peek(0) == 0xFFFFFFFF

    def test_out_of_range_offset(self):
        bank = SPMBank(words=2)
        with pytest.raises(IndexError):
            bank.try_access(0, 2, write=False)

    @pytest.mark.parametrize("offset", [-1, 2])
    def test_poke_rejects_out_of_range_offset(self, offset):
        bank = SPMBank(words=2)
        with pytest.raises(IndexError, match=f"offset {offset} outside bank of 2 words"):
            bank.poke(offset, 5)
        assert [bank.peek(0), bank.peek(1)] == [0, 0]

    def test_untouched_words_read_zero(self):
        bank = SPMBank(words=4)
        bank.poke(2, 9)
        assert [bank.peek(i) for i in range(4)] == [0, 0, 9, 0]
        assert bank.export_words() == [0, 0, 9, 0]
        bank.import_words([0, 3, 0, 0])
        assert bank.export_words() == [0, 3, 0, 0]

    def test_rejects_empty_bank(self):
        with pytest.raises(ValueError):
            SPMBank(words=0)

    def test_stats_counters(self):
        bank = SPMBank(words=4)
        bank.try_access(0, 0, write=True, value=1)
        bank.try_access(1, 0, write=False)
        bank.try_access(2, 1, write=False)
        assert bank.stats.writes == 1
        assert bank.stats.reads == 2
        assert bank.stats.accesses == 3


class TestTileSPM:
    def test_build(self):
        spm = TileSPM.build(banks_per_tile=16, words_per_bank=256)
        assert len(spm.banks) == 16
        assert spm.total_words == 4096

    def test_build_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            TileSPM.build(banks_per_tile=0, words_per_bank=4)

    def test_conflict_rate_zero_when_untouched(self):
        spm = TileSPM.build(banks_per_tile=2, words_per_bank=4)
        assert spm.conflict_rate() == 0.0

    def test_conflict_rate_counts_refusals(self):
        spm = TileSPM.build(banks_per_tile=1, words_per_bank=4)
        spm.banks[0].try_access(0, 0, write=False)
        spm.banks[0].try_access(0, 1, write=False)  # conflict
        assert spm.conflict_rate() == pytest.approx(0.5)

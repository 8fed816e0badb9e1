"""Butterfly memory system: layouts and bank conflicts."""

import numpy as np
import pytest

from repro.butterfly.factor import pair_indices, stage_halves
from repro.hardware.functional import BankedBuffer, bank_of


def bank_rows(n, nbanks, layout):
    """Element ids per bank, in column order (Figs. 8b/c and 10a)."""
    return [[e for e in range(n) if bank_of(e, n, nbanks, layout) == bank]
            for bank in range(nbanks)]


class TestBankMapping:
    def test_butterfly_layout_matches_paper_fig10(self):
        """The 16-element example of Fig. 10a, banks as rows."""
        grid = bank_rows(16, 4, "butterfly")
        assert grid[0] == [0, 7, 11, 14]
        assert grid[1] == [1, 4, 8, 15]
        assert grid[2] == [2, 5, 9, 12]
        assert grid[3] == [3, 6, 10, 13]

    def test_column_major_matches_paper_fig8b(self):
        grid = bank_rows(16, 4, "column_major")
        assert grid[0] == [0, 4, 8, 12]
        assert grid[3] == [3, 7, 11, 15]

    def test_row_major_matches_paper_fig8c(self):
        grid = bank_rows(16, 4, "row_major")
        assert grid[0] == [0, 1, 2, 3]
        assert grid[3] == [12, 13, 14, 15]

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="unknown layout"):
            bank_of(0, 16, 4, "diagonal")

    @pytest.mark.parametrize("layout", ["butterfly", "column_major", "row_major"])
    def test_layout_balances_banks(self, layout):
        counts = np.zeros(8, dtype=int)
        for e in range(64):
            counts[bank_of(e, 64, 8, layout)] += 1
        np.testing.assert_array_equal(counts, np.full(8, 8))


class TestConflictStructure:
    def test_butterfly_layout_pairs_never_conflict(self):
        """Every stage's (i, i+half) pair maps to two distinct banks."""
        n, nbanks = 256, 8
        for half in stage_halves(n):
            for a, b in pair_indices(n, half):
                assert bank_of(a, n, nbanks, "butterfly") != bank_of(
                    b, n, nbanks, "butterfly"
                ), f"conflict at half={half}, pair=({a},{b})"

    @pytest.mark.parametrize("n, nbanks", [(16, 4), (64, 2), (128, 16),
                                           (1024, 32)])
    def test_butterfly_layout_is_conflict_free_at_every_size(self, n, nbanks):
        for half in stage_halves(n):
            pairs = pair_indices(n, half)
            banks = [(bank_of(a, n, nbanks, "butterfly"),
                      bank_of(b, n, nbanks, "butterfly")) for a, b in pairs]
            assert all(x != y for x, y in banks), f"half={half}"

    def test_column_major_conflicts_at_large_stride(self):
        """Fig. 8b: x0/x8 collide in column-major order."""
        assert bank_of(0, 16, 4, "column_major") == bank_of(8, 16, 4, "column_major")

    def test_row_major_conflicts_at_small_stride(self):
        """Fig. 8c: x0/x2 collide in row-major order."""
        assert bank_of(0, 16, 4, "row_major") == bank_of(2, 16, 4, "row_major")


class TestBankedBuffer:
    def test_store_and_snapshot(self, rng):
        buf = BankedBuffer(16, 4)
        data = rng.normal(size=16)
        buf.store(data)
        np.testing.assert_allclose(buf.snapshot().real, data)

    def test_store_wrong_size(self, rng):
        buf = BankedBuffer(16, 4)
        with pytest.raises(ValueError, match="expected 16"):
            buf.store(rng.normal(size=8))

    def test_invalid_bank_count(self):
        with pytest.raises(ValueError, match="multiple"):
            BankedBuffer(10, 4)

    def test_invalid_layout(self):
        with pytest.raises(ValueError, match="unknown layout"):
            BankedBuffer(16, 4, layout="zigzag")

    def test_read_returns_requested_values(self, rng):
        buf = BankedBuffer(16, 4)
        data = rng.normal(size=16)
        buf.store(data)
        values, conflict = buf.read_elements([0, 8, 2, 10])
        np.testing.assert_allclose(values.real, data[[0, 8, 2, 10]])
        assert not conflict

    def test_conflicting_read_flagged_and_counted(self, rng):
        buf = BankedBuffer(16, 4, layout="column_major")
        buf.store(rng.normal(size=16))
        _, conflict = buf.read_elements([0, 8])  # same bank in column-major
        assert conflict
        assert buf.stats.conflicts == 1
        assert buf.stats.cycles == 2  # serialized access costs a stall

    def test_conflict_free_read_costs_one_cycle(self, rng):
        buf = BankedBuffer(16, 4)
        buf.store(rng.normal(size=16))
        buf.read_elements([0, 1, 2, 3])
        assert buf.stats.cycles == 1
        assert buf.stats.conflicts == 0

    def test_cannot_read_more_than_banks(self, rng):
        buf = BankedBuffer(16, 4)
        buf.store(rng.normal(size=16))
        with pytest.raises(ValueError, match="banks"):
            buf.read_elements([0, 1, 2, 3, 4])

    def test_write_then_snapshot_order_preserved(self, rng):
        """The Recover module keeps the logical element order."""
        buf = BankedBuffer(8, 4)
        buf.store(np.zeros(8))
        buf.write_elements([3, 1], [30.0, 10.0])
        snap = buf.snapshot().real
        assert snap[3] == 30.0
        assert snap[1] == 10.0
        assert snap[0] == 0.0

    def test_complex_values_supported(self, rng):
        """FFT mode stores complex values (double-width ping-pong ports)."""
        buf = BankedBuffer(8, 4)
        data = rng.normal(size=8) + 1j * rng.normal(size=8)
        buf.store(data)
        np.testing.assert_allclose(buf.snapshot(), data)

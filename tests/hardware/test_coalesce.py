"""Stage scheduling and index coalescing (Figs. 8, 10, 11)."""

import pytest

from repro.butterfly.factor import stage_halves
from repro.hardware.functional import (
    coalesce_pairs,
    schedule_stage,
    stage_read_cycles,
)


class TestScheduleStage:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("nbanks", [4, 8, 16])
    def test_butterfly_layout_achieves_optimum_every_stage(self, n, nbanks):
        """The paper's layout is conflict-free at *every* stage."""
        if nbanks > n:
            pytest.skip("more banks than elements")
        for half in stage_halves(n):
            cycles = stage_read_cycles(n, half, nbanks, "butterfly")
            assert cycles == n // nbanks, (
                f"stage half={half} not conflict-free"
            )

    def test_row_major_conflicts_at_early_stages(self):
        assert stage_read_cycles(16, 1, 4, "row_major") > 16 // 4

    def test_column_major_conflicts_at_late_stages(self):
        assert stage_read_cycles(16, 8, 4, "column_major") > 16 // 4

    def test_no_single_naive_layout_works_everywhere(self):
        """Fig. 8's point: each naive layout fails at some stage."""
        for layout in ("row_major", "column_major"):
            worst = max(
                stage_read_cycles(64, half, 8, layout) for half in stage_halves(64)
            )
            assert worst > 64 // 8

    def test_groups_hold_at_most_lanes_pairs(self):
        for group in schedule_stage(64, 4, 8):
            assert len(group) <= 4

    def test_groups_cover_all_pairs_once(self):
        groups = schedule_stage(32, 2, 8)
        seen = [pair for group in groups for pair in group]
        assert len(seen) == 16
        assert len(set(seen)) == 16

    def test_invalid_nbanks(self):
        with pytest.raises(ValueError, match="even"):
            schedule_stage(16, 1, 3)

    def test_first_group_matches_paper_fig10(self):
        """Fig. 10b: the first read cycle of the half=8 stage pairs
        (x0, x8) and (x2, x10)."""
        groups = schedule_stage(16, 8, 4, "butterfly")
        assert groups[0] == [(0, 8), (2, 10)]
        assert groups[1] == [(1, 9), (3, 11)]


class TestCoalescePairs:
    def test_reorders_bank_outputs_into_pairs(self, rng):
        elements = [8, 0, 10, 2]  # arbitrary bank delivery order
        values = [80.0, 0.5, 100.0, 20.0]
        pairs = [(0, 8), (2, 10)]
        out = coalesce_pairs(elements, values, pairs)
        assert out == [(0.5, 80.0), (20.0, 100.0)]

    def test_missing_element_raises(self):
        with pytest.raises(KeyError, match="did not receive"):
            coalesce_pairs([0, 1], [1.0, 2.0], [(0, 5)])

    def test_complex_values(self, rng):
        out = coalesce_pairs([1, 0], [1j, 2j], [(0, 1)])
        assert out == [(2j, 1j)]

"""Ablation: butterfly buffer data layout (paper Figs. 8-10).

Design choice: the S2P module stores column ``i`` rotated by
``popcount(i)`` banks, which makes every butterfly stage's paired reads
conflict-free.  This bench counts read cycles per full butterfly under
the paper's layout vs row-/column-major placement.
"""

from conftest import print_table

from repro.butterfly.factor import stage_halves
from repro.hardware.functional import stage_read_cycles

LAYOUTS = ("butterfly", "column_major", "row_major")


def compute_cycles():
    rows = []
    for n in (64, 256, 1024):
        nbanks = 8
        totals = {
            layout: sum(
                stage_read_cycles(n, half, nbanks, layout)
                for half in stage_halves(n)
            )
            for layout in LAYOUTS
        }
        optimum = len(stage_halves(n)) * (n // nbanks)
        rows.append(
            (n, optimum, totals["butterfly"], totals["column_major"],
             totals["row_major"],
             f"x{totals['row_major'] / totals['butterfly']:.2f}")
        )
    return rows


def test_ablation_memory_layout():
    rows = compute_cycles()
    print_table(
        "Ablation: read cycles per full butterfly (8 banks)",
        ["n", "optimum", "S2P layout", "column-major", "row-major",
         "worst/S2P"],
        rows,
    )
    for n, optimum, bfly, col, row, _ in rows:
        assert bfly == optimum  # the paper layout is conflict-free
        assert col > optimum  # both naive layouts serialize somewhere
        assert row > optimum

"""Table VII: resource usage of the BE-40 and BE-120 designs on VCU128.

Paper values: BE-40 uses 358,609 LUTs / 536,810 registers / 640 DSPs /
338 BRAMs; BE-120 uses 1,034,610 / 1,648,695 / 2,880 / 978.  Both fit the
VCU128 with one HBM stack.
"""

import pytest
from conftest import print_table

from repro.hardware import (
    BE40_CONFIG,
    BE120_CONFIG,
    VCU128,
    estimate_resources,
)

PAPER = {
    "BE-40": dict(luts=358_609, registers=536_810, dsps=640, brams=338),
    "BE-120": dict(luts=1_034_610, registers=1_648_695, dsps=2_880, brams=978),
}


def compute_resources():
    return {
        "BE-40": estimate_resources(BE40_CONFIG),
        "BE-120": estimate_resources(BE120_CONFIG),
    }


def test_table7_resources():
    resources = compute_resources()
    rows = []
    for name, res in resources.items():
        util = res.utilization(VCU128)
        for field in ("luts", "registers", "dsps", "brams"):
            rows.append(
                (name, field, f"{getattr(res, field):,}",
                 f"{PAPER[name][field]:,}", f"{100 * util[field]:.1f}%")
            )
    print_table(
        "Table VII: resource usage, measured vs paper",
        ["design", "resource", "model", "paper", "utilization"],
        rows,
    )
    for name, res in resources.items():
        assert res.dsps == PAPER[name]["dsps"]
        assert res.brams == PAPER[name]["brams"]
        assert res.luts == pytest.approx(PAPER[name]["luts"], rel=1e-3)
        assert res.registers == pytest.approx(PAPER[name]["registers"], rel=1e-3)
        assert res.fits(VCU128)
    # Table VII utilization pins: BE-120 at 79.3% LUTs / 31.9% DSPs.
    util = resources["BE-120"].utilization(VCU128)
    assert util["luts"] == pytest.approx(0.793, abs=0.01)
    assert util["dsps"] == pytest.approx(0.319, abs=0.01)

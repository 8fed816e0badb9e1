"""Table VI: power breakdown of the BE-40 and BE-120 designs on VCU128.

Paper values (W):
  BE-40 : clocking 2.668, logic&signal 2.381, DSP 0.338, memory 5.325,
          static 3.368 (dynamic > 70% of total)
  BE-120: clocking 6.882, logic&signal 7.732, DSP 1.437, memory 6.142,
          static 3.665
"""

import pytest
from conftest import print_table

from repro.hardware import (
    BE40_CONFIG,
    BE120_CONFIG,
    estimate_power,
    estimate_resources,
)

PAPER = {
    "BE-40": dict(clocking=2.668, logic_signal=2.381, dsp=0.338,
                  memory=5.325, static=3.368),
    "BE-120": dict(clocking=6.882, logic_signal=7.732, dsp=1.437,
                   memory=6.142, static=3.665),
}


def compute_breakdowns():
    return {
        "BE-40": estimate_power(BE40_CONFIG, estimate_resources(BE40_CONFIG)),
        "BE-120": estimate_power(BE120_CONFIG, estimate_resources(BE120_CONFIG)),
    }


def test_table6_power():
    power = compute_breakdowns()
    rows = []
    for name, p in power.items():
        d = p.as_dict()
        for component in ("clocking", "logic_signal", "dsp", "memory", "static"):
            rows.append(
                (name, component, f"{d[component]:.3f}",
                 f"{PAPER[name][component]:.3f}")
            )
        rows.append((name, "total", f"{p.total:.3f}",
                     f"{sum(PAPER[name].values()):.3f}"))
    print_table(
        "Table VI: power breakdown (W), measured vs paper",
        ["design", "component", "model", "paper"],
        rows,
    )
    for name, p in power.items():
        d = p.as_dict()
        for component, want in PAPER[name].items():
            assert d[component] == pytest.approx(want, abs=0.02), (name, component)
        assert p.dynamic / p.total > 0.70

"""Figure 17: FLOPs and model-size reduction of FABNet.

Paper finding: 10~66x fewer FLOPs and 2~22x fewer parameters than the
vanilla Transformer; 2~10x / 2~32x vs FNet, depending on the task.
"""

from conftest import print_table

from repro.analysis import (
    TASK_BASELINE_SPECS,
    TASK_FABNET_SPECS,
    TASK_FNET_SPECS,
    compression_ratios,
)
from repro.analysis.configs import TASK_VOCAB_SIZE


def compute_ratios():
    out = {}
    for task, fab in TASK_FABNET_SPECS.items():
        out[task] = compression_ratios(
            fab, TASK_BASELINE_SPECS[task], TASK_FNET_SPECS[task],
            TASK_VOCAB_SIZE[task],
        )
    return out


def test_fig17_compression():
    ratios = compute_ratios()
    print_table(
        "Figure 17: FABNet reduction factors (paper: 10-66x FLOPs, "
        "2-22x params over Transformer)",
        ["task", "FLOPs/Transformer", "FLOPs/FNet", "params/Transformer",
         "params/FNet"],
        [
            (task,
             f"x{r.flops_vs_transformer:.1f}", f"x{r.flops_vs_fnet:.1f}",
             f"x{r.params_vs_transformer:.1f}", f"x{r.params_vs_fnet:.1f}")
            for task, r in ratios.items()
        ],
    )
    flops = [r.flops_vs_transformer for r in ratios.values()]
    params = [r.params_vs_transformer for r in ratios.values()]
    assert 8.0 < min(flops) and max(flops) < 90.0
    assert 2.0 < min(params) and max(params) < 25.0
    assert all(r.flops_vs_fnet > 2.0 for r in ratios.values())

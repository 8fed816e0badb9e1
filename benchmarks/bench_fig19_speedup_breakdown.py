"""Figure 19: speedup breakdown — algorithm vs hardware contributions.

Paper finding (2048 multipliers on both designs, 200 MHz):
  * algorithm (FABNet vs BERT on the baseline MAC design): 1.56-2.3x
  * hardware (butterfly accelerator vs baseline, both running FABNet):
    19.5-53.3x
  * combined: 30.8-87.3x.
"""

from conftest import print_table

from repro.hardware import (
    AcceleratorConfig,
    BaselineAccelerator,
    BaselineConfig,
    ButterflyPerformanceModel,
    bert_spec,
    fabnet_spec,
)

SEQ_LENGTHS = (128, 256, 512, 1024)


def compute_breakdown():
    baseline = BaselineAccelerator(BaselineConfig(n_multipliers=2048))
    butterfly = ButterflyPerformanceModel(
        AcceleratorConfig(pbe=128, pbu=4, pae=0, pqk=0, psv=0)
    )
    rows = []
    for large in (False, True):
        tag = "Large" if large else "Base"
        for seq in SEQ_LENGTHS:
            t_bert = baseline.model_latency(bert_spec(seq, large)).latency_ms
            t_fab_base = baseline.model_latency(fabnet_spec(seq, large)).latency_ms
            t_fab_bfly = butterfly.model_latency(fabnet_spec(seq, large)).latency_ms
            rows.append(
                (tag, seq,
                 f"{t_bert:.2f}", f"{t_fab_base:.2f}", f"{t_fab_bfly:.3f}",
                 f"x{t_bert / t_fab_base:.2f}",
                 f"x{t_fab_base / t_fab_bfly:.1f}",
                 f"x{t_bert / t_fab_bfly:.1f}")
            )
    return rows


def test_fig19_speedup_breakdown():
    rows = compute_breakdown()
    print_table(
        "Figure 19: speedup breakdown (paper: algo 1.56-2.3x, "
        "hw 19.5-53.3x, total 30.8-87.3x)",
        ["model", "seq", "BERT/baseline ms", "FABNet/baseline ms",
         "FABNet/butterfly ms", "algo", "hardware", "total"],
        rows,
    )
    algo = [float(r[5][1:]) for r in rows]
    hw = [float(r[6][1:]) for r in rows]
    total = [float(r[7][1:]) for r in rows]
    assert min(algo) > 1.2 and max(algo) < 3.0
    assert min(hw) > 15.0 and max(hw) < 60.0
    assert min(total) > 25.0 and max(total) < 90.0
    # Speedup grows with sequence length and model size, as in the paper.
    assert total[-1] > total[0]

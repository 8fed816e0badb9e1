"""Ablation: unified FFT/butterfly engine vs two dedicated engines.

Design choice: the adaptable BU executes both FFT and butterfly
linear transforms on the same four multipliers.  The alternative is two
dedicated processors splitting the same DSP budget; each then idles while
the other's layer type runs.  This bench compares FBfly-block latency
under the two organizations at equal total multiplier count.
"""

from conftest import print_table

from repro.hardware import AcceleratorConfig, ButterflyPerformanceModel, WorkloadSpec


def compute_ablation():
    rows = []
    spec = WorkloadSpec(seq_len=1024, d_hidden=768, r_ffn=4, n_total=12,
                        n_abfly=0, n_heads=12)
    for pbe_total in (32, 64, 128):
        unified = ButterflyPerformanceModel(
            AcceleratorConfig(pbe=pbe_total, pbu=4)
        ).model_latency(spec)
        # Split design: half the engines do FFT, half do butterfly; each
        # layer type only uses its own half.
        half = ButterflyPerformanceModel(
            AcceleratorConfig(pbe=pbe_total // 2, pbu=4)
        ).model_latency(spec)
        kinds = half.cycles_by_kind()
        split_cycles = sum(kinds.values())  # both halves at half throughput
        unified_ms = unified.latency_ms
        split_ms = split_cycles / (200e6) * 1e3
        rows.append(
            (pbe_total, f"{unified_ms:.2f}", f"{split_ms:.2f}",
             f"x{split_ms / unified_ms:.2f}")
        )
    return rows


def test_ablation_unified_engine():
    rows = compute_ablation()
    print_table(
        "Ablation: unified engine vs dedicated FFT+butterfly engines "
        "(equal multiplier budget, FABNet-Base seq 1024)",
        ["total BEs", "unified ms", "split ms", "split/unified"],
        rows,
    )
    for _, _, _, ratio in rows:
        assert float(ratio[1:]) > 1.2  # unification wins at every scale

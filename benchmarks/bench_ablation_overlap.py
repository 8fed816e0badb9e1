"""Ablation: double-buffering overlap strategies (paper Fig. 13).

Design choice: the accelerator uses two address-mapping and
overlap strategies — full input/output overlap for butterfly layers
(Fig. 13a) and store-with-next-load overlap for FFT (Fig. 13b).  This
bench quantifies each strategy against the naive (no-overlap) schedule.
"""

from conftest import print_table

from repro.hardware import AcceleratorConfig, ButterflyPerformanceModel, WorkloadSpec


def compute_ablation():
    spec = WorkloadSpec(seq_len=1024, d_hidden=768, r_ffn=4, n_total=12,
                        n_abfly=0, n_heads=12)
    rows = []
    for bw in (25.0, 100.0, 450.0):
        config = AcceleratorConfig(pbe=64, pbu=4, bandwidth_gbs=bw)
        overlapped = ButterflyPerformanceModel(config, overlap=True)
        naive = ButterflyPerformanceModel(config, overlap=False)
        t_overlap = overlapped.model_latency(spec).latency_ms
        t_naive = naive.model_latency(spec).latency_ms
        rows.append(
            (f"{bw:.0f}", f"{t_naive:.2f}", f"{t_overlap:.2f}",
             f"x{t_naive / t_overlap:.2f}")
        )
    return rows


def test_ablation_overlap():
    rows = compute_ablation()
    print_table(
        "Ablation: Fig. 13 overlap strategies (FABNet-Base, seq 1024, 64 BEs)",
        ["bandwidth GB/s", "naive ms", "overlapped ms", "gain"],
        rows,
    )
    gains = [float(r[3][1:]) for r in rows]
    assert all(g >= 1.0 for g in gains)
    # Overlap matters most when memory pressure is high (low bandwidth).
    assert gains[0] >= gains[-1]
    assert max(gains) > 1.2

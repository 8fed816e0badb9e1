"""Ablation: fine-grained BP<->AP pipelining (paper Fig. 14).

Design choice: the accelerator reorders the Q/K/V projections
(K and V first) so the attention processor can start consuming Q rows
while the butterfly processor is still producing them, and SV consumes
score rows as they stream out of QK.  This bench measures ABfly-block
latency with the pipeline on and off.
"""

from conftest import print_table

from repro.hardware import AcceleratorConfig, ButterflyPerformanceModel, WorkloadSpec


def compute_ablation():
    config = AcceleratorConfig(pbe=32, pbu=4, pae=8, pqk=16, psv=16)
    rows = []
    for seq in (128, 256, 512, 1024):
        spec = WorkloadSpec(seq_len=seq, d_hidden=512, r_ffn=4, n_total=4,
                            n_abfly=4, n_heads=8)
        piped = ButterflyPerformanceModel(config, fine_grained_pipeline=True)
        naive = ButterflyPerformanceModel(config, fine_grained_pipeline=False)
        t_piped = piped.model_latency(spec).latency_ms
        t_naive = naive.model_latency(spec).latency_ms
        rows.append(
            (seq, f"{t_naive:.2f}", f"{t_piped:.2f}", f"x{t_naive / t_piped:.2f}")
        )
    return rows


def test_ablation_pipeline():
    rows = compute_ablation()
    print_table(
        "Ablation: Fig. 14 BP<->AP fine-grained pipelining "
        "(all-ABfly FABNet, 32 BEs)",
        ["seq", "no pipeline ms", "pipelined ms", "gain"],
        rows,
    )
    gains = [float(r[3][1:]) for r in rows]
    assert all(g > 1.0 for g in gains)
    # The attention core grows quadratically, so the hidden fraction —
    # and with it the gain — grows with sequence length.
    assert gains[-1] >= gains[0]

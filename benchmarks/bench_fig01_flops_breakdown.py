"""Figure 1: FLOPs share of attention vs linear layers vs input length.

Paper finding: for short inputs, linear layers account for >80% of the
operations of mainstream attention models; as the sequence grows, the
attention mechanism's quadratic terms take over.
"""

from dataclasses import replace

from conftest import print_table

from repro.analysis import MAINSTREAM_MODELS, model_flops

SEQ_LENGTHS = (128, 256, 512, 1024, 2048, 4096)


def compute_breakdown():
    rows = []
    for name, base in MAINSTREAM_MODELS.items():
        for seq in SEQ_LENGTHS:
            pct = model_flops(replace(base, seq_len=seq)).percentages()
            rows.append(
                (name, seq, f"{pct['attention']:.1f}", f"{pct['linear']:.1f}",
                 f"{pct['other']:.1f}")
            )
    return rows


def test_fig01_flops_breakdown():
    rows = compute_breakdown()
    print_table(
        "Figure 1: operation breakdown (% of FLOPs)",
        ["model", "seq", "attention%", "linear%", "other%"],
        rows,
    )
    # Paper shape: linear > 80% at short inputs, attention dominant trend.
    short = [r for r in rows if r[1] == 128]
    assert all(float(r[3]) > 80.0 for r in short)
    for name in MAINSTREAM_MODELS:
        shares = [float(r[2]) for r in rows if r[0] == name]
        assert shares == sorted(shares), f"attention share not monotone for {name}"

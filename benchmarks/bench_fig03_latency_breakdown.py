"""Figure 3: execution-time breakdown of BERT-Large on GPU and CPU.

Paper finding (measured on V100 / Xeon Gold 6154; here from the roofline
platform models): linear layers take ~68-79% of the time at sequence
length 256, and attention grows dominant by 2048.
"""

from conftest import print_table

from repro.hardware import V100, XEON_6154, bert_spec, platform_breakdown

SETTINGS = [("V100", V100, 8), ("Xeon 6154", XEON_6154, 1)]
SEQ_LENGTHS = (256, 1024, 2048)


def compute_breakdowns():
    rows = []
    for name, platform, batch in SETTINGS:
        for seq in SEQ_LENGTHS:
            pct = platform_breakdown(
                platform, bert_spec(seq, large=True), batch=batch
            ).percentages()
            rows.append(
                (name, seq, f"{pct['attention']:.1f}", f"{pct['linear']:.1f}",
                 f"{pct['other']:.1f}")
            )
    return rows


def test_fig03_latency_breakdown():
    rows = compute_breakdowns()
    print_table(
        "Figure 3: BERT-Large execution-time breakdown (%)",
        ["platform", "seq", "attention%", "linear%", "other%"],
        rows,
    )
    for name, _, _ in SETTINGS:
        dev = [r for r in rows if r[0] == name]
        # Linear dominates at 256 (paper: 67.9% CPU / 79.3% GPU)...
        assert float(dev[0][3]) > 50.0
        # ...and attention dominates by 2048.
        assert float(dev[-1][2]) > float(dev[-1][3])

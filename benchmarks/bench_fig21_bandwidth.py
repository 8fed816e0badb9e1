"""Figure 21: latency vs off-chip memory bandwidth for 16-128 BEs.

Paper finding: a 16-BE design saturates at ~50 GB/s; the 128-BE design
keeps improving until ~100 GB/s — so a single HBM stack (450 GB/s)
satisfies every configuration, motivating the one-HBM deployment.
"""

from conftest import print_table

from repro.hardware import WorkloadSpec, latency_vs_bandwidth

BANDWIDTHS = [6, 12, 25, 50, 100, 200]
BE_COUNTS = [16, 32, 64, 96, 128]
SEQ_LENGTHS = [128, 1024, 4096]


def compute_sweep():
    table = {}
    for seq in SEQ_LENGTHS:
        spec = WorkloadSpec(seq_len=seq, d_hidden=1024, r_ffn=4,
                            n_total=24, n_abfly=0, n_heads=16)
        for n_bes in BE_COUNTS:
            table[(seq, n_bes)] = latency_vs_bandwidth(spec, n_bes, BANDWIDTHS)
    return table


def test_fig21_bandwidth():
    table = compute_sweep()
    rows = [
        (seq, n_bes, *(f"{v:.1f}" for v in table[(seq, n_bes)]))
        for seq in SEQ_LENGTHS
        for n_bes in BE_COUNTS
    ]
    print_table(
        "Figure 21: FABNet-Large latency (ms) vs bandwidth (GB/s)",
        ["seq", "BEs", *(f"{b} GB/s" for b in BANDWIDTHS)],
        rows,
    )
    for key, lats in table.items():
        assert all(b <= a * 1.0001 for a, b in zip(lats, lats[1:])), key
    for seq in SEQ_LENGTHS:
        # 16-BE design: saturated by 50 GB/s (<5% further gain, paper Fig 21).
        small = table[(seq, 16)]
        assert small[3] / small[-1] < 1.05
        # 128-BE design still gains between 50 and 100 GB/s.
        large = table[(seq, 128)]
        assert large[3] / large[4] > 1.05
        # More BEs never slower at max bandwidth.
        finals = [table[(seq, n)][-1] for n in BE_COUNTS]
        assert all(b <= a for a, b in zip(finals, finals[1:]))

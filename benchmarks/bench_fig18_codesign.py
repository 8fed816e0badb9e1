"""Figure 18: co-design space exploration on LRA-Text / VCU128.

Paper finding: the joint grid search produces an accuracy-latency scatter
whose Pareto front contains the selected design — up to ~10% more
accurate than same-latency points and orders of magnitude (paper: 130x)
faster than same-accuracy points; the winning configuration is a small
all-FBfly FABNet with <Pbe, Pbu, Pqk, Psv> = <64, 4, 0, 0>.
"""

from conftest import print_table

from repro.codesign import (
    DesignSpace,
    SurrogateAccuracyOracle,
    design_space_spread,
    run_codesign,
)


def run_search():
    space = DesignSpace()
    oracle = SurrogateAccuracyOracle(task="text")
    return run_codesign(oracle, seq_len=4096, space=space, max_accuracy_loss=0.015)


def test_fig18_codesign():
    result = run_search()
    print_table(
        "Figure 18: Pareto front of the co-design search (LRA-Text, VCU128)",
        ["Dhid", "Rffn", "Ntotal", "NABfly", "Pbe", "Pbu", "Pqk", "Psv",
         "accuracy", "latency (ms)"],
        [
            (p.spec.d_hidden, p.spec.r_ffn, p.spec.n_total, p.spec.n_abfly,
             p.config.pbe, p.config.pbu, p.config.pqk, p.config.psv,
             f"{p.accuracy:.3f}", f"{p.latency_ms:.3f}")
            for p in result.pareto
        ],
    )
    sel = result.selected
    spread = design_space_spread(result)
    print(f"evaluated points: {len(result.points)}")
    print(f"selected: FABNet{{Dhid={sel.spec.d_hidden}, Rffn={sel.spec.r_ffn}, "
          f"Ntotal={sel.spec.n_total}, NABfly={sel.spec.n_abfly}}} "
          f"HW{{Pbe={sel.config.pbe}, Pbu={sel.config.pbu}, "
          f"Pqk={sel.config.pqk}, Psv={sel.config.psv}}} "
          f"acc={sel.accuracy:.3f} lat={sel.latency_ms:.3f}ms")
    print(f"spread: +{100 * spread['accuracy_gain']:.1f}% accuracy at equal "
          f"latency; {spread['speedup']:.0f}x speedup at equal accuracy "
          "(paper: ~10% and ~130x)")

    assert len(result.points) > 1000
    assert sel is not None
    # Paper's winner is a small all-FBfly model with no attention processor.
    assert sel.spec.n_abfly == 0
    assert sel.config.pqk == 0 and sel.config.psv == 0
    assert sel.spec.d_hidden <= 128
    assert spread["accuracy_gain"] > 0.02  # >2% accuracy at same latency
    assert spread["speedup"] > 50.0  # orders of magnitude at same accuracy

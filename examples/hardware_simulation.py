"""Tour of the hardware models: functional engine, memory system, and
the analytical latency/resource/power estimators.

Demonstrates the paper's core hardware claims at value level:

1. the *same* adaptable Butterfly Engine executes an FFT and a trainable
   butterfly linear transform (unified datapath, Fig. 6/7) with identical
   multiplier usage;
2. the S2P permuted data layout eliminates the bank conflicts that
   row-/column-major layouts suffer (Fig. 8-10);
3. the cycle-level model shows where a deployment is compute- vs
   bandwidth-bound (Fig. 21) and what it costs in DSP/BRAM/power
   (Tables VI/VII);
4. the whole accelerator reproduces the software model's logits at the
   paper's long-sequence length (Appendix C).

Run:  python examples/hardware_simulation.py
"""

import time

import numpy as np

from repro import nn
from repro.butterfly import ButterflyMatrix
from repro.hardware import (
    AcceleratorConfig,
    ButterflyPerformanceModel,
    WorkloadSpec,
    estimate_power,
    estimate_resources,
    latency_vs_bandwidth,
)
from repro.hardware.functional import (
    ButterflyAccelerator,
    ButterflyEngine,
    stage_read_cycles,
)
from repro.butterfly.factor import stage_halves
from repro.models import ModelConfig, build_fabnet


def unified_engine_demo() -> None:
    print("== 1. Unified engine: FFT and butterfly on the same datapath ==")
    rng = np.random.default_rng(0)
    engine = ButterflyEngine(pbu=4)

    x = rng.normal(size=64)
    matrix = ButterflyMatrix.random(64, rng)
    hw = engine.run_butterfly(x, matrix)
    ref = matrix.apply(x)
    bfly_stats = engine.last_stats
    print(f"  butterfly: max|err|={np.abs(hw - ref).max():.2e}  "
          f"mults={bfly_stats.mult_ops} conflicts={bfly_stats.bank_conflicts}")

    xc = rng.normal(size=64) + 1j * rng.normal(size=64)
    hw_fft = engine.run_fft(xc)
    fft_stats = engine.last_stats
    print(f"  fft:       max|err|={np.abs(hw_fft - np.fft.fft(xc)).max():.2e}  "
          f"mults={fft_stats.mult_ops} conflicts={fft_stats.bank_conflicts}")
    print("  same multiplier count in both modes: "
          f"{bfly_stats.mult_ops == fft_stats.mult_ops}")


def memory_layout_demo() -> None:
    print("\n== 2. Bank conflicts: butterfly layout vs row/column major ==")
    n, nbanks = 64, 8
    print(f"  n={n}, banks={nbanks}; read cycles per stage (optimum {n // nbanks}):")
    print(f"  {'stage half':>10s} {'butterfly':>10s} {'column':>8s} {'row':>6s}")
    for half in stage_halves(n):
        cycles = {
            layout: stage_read_cycles(n, half, nbanks, layout)
            for layout in ("butterfly", "column_major", "row_major")
        }
        print(f"  {half:>10d} {cycles['butterfly']:>10d} "
              f"{cycles['column_major']:>8d} {cycles['row_major']:>6d}")


def deployment_demo() -> None:
    print("\n== 3. Cycle-level latency, bandwidth sensitivity, cost ==")
    spec = WorkloadSpec(seq_len=1024, d_hidden=1024, r_ffn=4, n_total=24, n_abfly=0)
    print("  FABNet-Large, seq 1024; latency vs off-chip bandwidth:")
    bandwidths = [6, 12, 25, 50, 100, 200]
    for n_bes in (16, 64, 128):
        lats = latency_vs_bandwidth(spec, n_bes, bandwidths)
        formatted = " ".join(f"{v:8.1f}" for v in lats)
        print(f"    {n_bes:3d} BEs: {formatted}  ms @ {bandwidths} GB/s")

    config = AcceleratorConfig(pbe=64, pbu=4)
    report = ButterflyPerformanceModel(config).model_latency(spec)
    print(f"  at 450 GB/s (HBM): {report.latency_ms:.2f} ms "
          f"({report.total_cycles:,.0f} cycles)")
    resources = estimate_resources(config)
    power = estimate_power(config, resources)
    print(f"  resources: {resources.dsps} DSPs, {resources.brams} BRAMs, "
          f"{resources.luts:,} LUTs")
    print(f"  power: {power.total:.2f} W "
          f"(dynamic {power.dynamic:.2f} W, static {power.static:.2f} W)")


def cross_validation_demo() -> None:
    print("\n== 4. Cross-validation at the paper's sequence length ==")
    config = ModelConfig(
        vocab_size=64, n_classes=2, max_len=1024, d_hidden=128, n_heads=4,
        r_ffn=4, n_total=2, n_abfly=1, dtype="float64", seed=0,
    )
    model = build_fabnet(config).eval()
    tokens = np.random.default_rng(0).integers(0, 64, size=(1, 1024))
    accelerator = ButterflyAccelerator(AcceleratorConfig(pqk=8, psv=8))
    start = time.perf_counter()
    hw = accelerator.run_encoder(model, tokens)
    host_s = time.perf_counter() - start
    with config.dtype_context(), nn.no_grad():
        sw = model(tokens).data
    trace = accelerator.trace
    pair_ops = trace.butterfly_pair_ops + trace.fft_pair_ops
    print("  FABNet L=1024 d=128 (1 FBfly + 1 ABfly), one sample:")
    print(f"  max|sim - software|={np.abs(hw - sw).max():.2e}  "
          f"bank conflicts={trace.bank_conflicts}")
    print(f"  {pair_ops:,} pair-ops ({trace.fft_pair_ops:,} FFT) in {host_s:.2f} s "
          f"of host time ({host_s * 1e6 / pair_ops:.2f} us per pair-op)")


def main() -> None:
    unified_engine_demo()
    memory_layout_demo()
    deployment_demo()
    cross_validation_demo()


if __name__ == "__main__":
    main()

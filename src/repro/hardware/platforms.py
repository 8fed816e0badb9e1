"""Roofline models of the CPU/GPU platforms the paper compares against.

The paper measures PyTorch implementations on an Nvidia V100, TITAN Xp,
Jetson Nano, a Raspberry Pi 4 and an Intel Xeon Gold 6154 (Table IV).  We
have none of that hardware, so each device is modeled as a roofline:
``time(op) = max(flops / (peak_flops * efficiency), bytes / bandwidth)``
plus a fixed per-kernel launch overhead.  The ``efficiency`` factors are
calibrated constants reflecting that framework GEMMs reach a fraction of
peak while elementwise/softmax kernels are bandwidth-bound; they stand in
for the paper's measured numbers.

`platform_breakdown` prices any workload's layers on one of these
devices.  It drives Fig. 3 (latency breakdown) and Fig. 20 (speedup and
energy comparisons), where only *ratios and shapes* matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..kernels.layout import next_power_of_two
from .perf import ComponentBreakdown, WorkloadSpec


@dataclass(frozen=True)
class Platform:
    """Roofline description of a CPU or GPU device.

    Efficiency factors (fractions of peak actually achieved):

    * ``gemm_efficiency`` — large dense matmuls (cuBLAS/MKL).
    * ``attention_efficiency`` — the batched small-``d_head`` score and
      context matmuls of attention, which run well below GEMM peak.
    * ``butterfly_efficiency`` — FFT/butterfly kernels (cuFFT and the
      Kaleidoscope CUDA kernels), which have little data reuse.
    * ``elementwise_bandwidth`` — fraction of peak bandwidth achieved by
      elementwise/norm/transpose kernels.
    """

    name: str
    peak_gflops: float  # usable peak (fp32/fp16 as the paper used)
    bandwidth_gbs: float
    power_w: float
    gemm_efficiency: float = 0.45
    attention_efficiency: float = 0.15
    butterfly_efficiency: float = 0.20
    elementwise_bandwidth: float = 0.30
    kernel_overhead_us: float = 5.0

    def op_time_s(
        self,
        flops: float,
        num_bytes: float,
        gemm: bool = True,
        efficiency: Optional[float] = None,
    ) -> float:
        """Roofline time of one operator invocation."""
        if efficiency is None:
            efficiency = self.gemm_efficiency
        bw = self.bandwidth_gbs * (1.0 if gemm else self.elementwise_bandwidth)
        compute = flops / (self.peak_gflops * 1e9 * efficiency)
        memory = num_bytes / (bw * 1e9)
        return max(compute, memory) + self.kernel_overhead_us * 1e-6


# Server GPUs: batch-1 LRA inference in eager PyTorch is dominated by
# per-kernel dispatch/synchronization (~80 us effective per op) and the
# published butterfly CUDA kernels reach only a few percent of peak
# (little data reuse); both constants are calibrated so the Fig. 20
# speedup-vs-sequence-length curve matches the paper's measured shape.
V100 = Platform(
    "V100", peak_gflops=15_700, bandwidth_gbs=900, power_w=300,
    butterfly_efficiency=0.05, attention_efficiency=0.12,
    kernel_overhead_us=80.0,
)
TITAN_XP = Platform(
    "TITAN Xp", peak_gflops=12_100, bandwidth_gbs=548, power_w=250,
    butterfly_efficiency=0.05, attention_efficiency=0.12,
    kernel_overhead_us=80.0,
)
JETSON_NANO = Platform(
    "Jetson Nano", peak_gflops=472, bandwidth_gbs=25.6, power_w=10,
    gemm_efficiency=0.35, butterfly_efficiency=0.10, kernel_overhead_us=20.0,
)
RASPBERRY_PI4 = Platform(
    "Raspberry Pi 4", peak_gflops=24, bandwidth_gbs=4.0, power_w=6,
    gemm_efficiency=0.30, butterfly_efficiency=0.12, kernel_overhead_us=2.0,
)
XEON_6154 = Platform(
    "Xeon Gold 6154", peak_gflops=1_700, bandwidth_gbs=120, power_w=200,
    gemm_efficiency=0.40, butterfly_efficiency=0.25, kernel_overhead_us=2.0,
)

PLATFORMS: Dict[str, Platform] = {
    "v100": V100,
    "titan_xp": TITAN_XP,
    "jetson_nano": JETSON_NANO,
    "raspberry_pi4": RASPBERRY_PI4,
    "xeon_6154": XEON_6154,
}

BYTES = 4  # PyTorch fp32 activations/weights


def platform_breakdown(
    platform: Platform, spec: WorkloadSpec, batch: int = 1
) -> ComponentBreakdown:
    """The attention/linear/other time split of any encoder workload on a
    CPU or GPU: one roofline operator per linear layer and FFT, two for
    the attention core and for each add + norm.

    Dense layers run as GEMMs.  FFTs (cuFFT ``rfft2``) and butterfly
    layers (the Kaleidoscope CUDA kernels, padded to a power of two as
    the hardware pads them) run at the platform's butterfly efficiency.
    ABfly and vanilla attention share the core, whose batched
    small-``d_head`` matmuls run far below GEMM peak; softmax and norms
    are bandwidth-bound.
    """
    r, d, heads = spec.seq_len, spec.d_hidden, spec.n_heads
    rows = batch * r

    def op_times(kind: str, d_in: int, d_out: int):
        if kind == "dense":
            flops = 2.0 * rows * d_in * d_out
            num_bytes = (rows * d_in + d_in * d_out + rows * d_out) * BYTES
            return (platform.op_time_s(flops, num_bytes, gemm=True),)
        if kind == "butterfly":
            n = next_power_of_two(max(d_in, d_out))
            flops = 6.0 * rows * (n / 2) * math.log2(n)
            num_bytes = (2 * rows * n + 2 * n * math.log2(n)) * BYTES
            return (platform.op_time_s(
                flops, num_bytes, efficiency=platform.butterfly_efficiency),)
        if kind == "fourier":
            flops = 5.0 * rows * d * math.log2(d) + 5.0 * batch * d * r * math.log2(r)
            return (platform.op_time_s(
                flops, 4 * rows * d * BYTES, efficiency=platform.butterfly_efficiency),)
        if kind == "attention":
            scores = batch * heads * r * r
            return (
                platform.op_time_s(2 * 2.0 * scores * (d // heads),
                                   (2 * scores + 4 * rows * d) * BYTES, gemm=True,
                                   efficiency=platform.attention_efficiency),
                platform.op_time_s(5.0 * scores, 2 * scores * BYTES, gemm=False),
            )
        if kind == "add_norm":  # a residual pass and a LayerNorm pass
            return (platform.op_time_s(5.0 * rows * d, 2 * rows * d * BYTES,
                                       gemm=False),) * 2
        return ()

    return ComponentBreakdown.fold(spec, op_times)

"""Roofline models of the CPU/GPU platforms the paper compares against.

The paper measures PyTorch implementations on an Nvidia V100, TITAN Xp,
Jetson Nano, a Raspberry Pi 4 and an Intel Xeon Gold 6154 (Table IV).  We
have none of that hardware, so each device is modeled as a roofline:
``time(op) = max(flops / (peak_flops * efficiency), bytes / bandwidth)``
plus a fixed per-kernel launch overhead.  The ``efficiency`` factors are
calibrated constants reflecting that framework GEMMs reach a fraction of
peak while elementwise/softmax kernels are bandwidth-bound; they are the
documented substitution for the paper's measured numbers (DESIGN.md).

These models drive Fig. 3 (latency breakdown) and Fig. 20 (speedup and
energy comparisons), where only *ratios and shapes* matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..kernels.layout import next_power_of_two
from ..models.blocks import block_layout
from .perf import WorkloadSpec


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


@dataclass
class ComponentBreakdown:
    """Per-component execution time of one encoder workload (Fig. 3)."""

    attention_s: float
    linear_s: float
    other_s: float

    @property
    def total_s(self) -> float:
        return self.attention_s + self.linear_s + self.other_s

    def percentages(self) -> Dict[str, float]:
        total = self.total_s
        return {
            "attention": 100.0 * self.attention_s / total,
            "linear": 100.0 * self.linear_s / total,
            "other": 100.0 * self.other_s / total,
        }


def transformer_breakdown(
    platform: Platform, spec: WorkloadSpec, batch: int = 1
) -> ComponentBreakdown:
    """Model the attention/linear/other latency split of a dense encoder."""
    r, d = spec.seq_len, spec.d_hidden
    rows = batch * r
    attention = 0.0
    linear = 0.0
    other = 0.0
    for _ in range(spec.n_total):
        # Q/K/V/O projections + FFN are "linear".
        for d_in, d_out in ((d, d),) * 4 + ((d, spec.d_ffn), (spec.d_ffn, d)):
            flops = 2.0 * rows * d_in * d_out
            num_bytes = (rows * d_in + d_in * d_out + rows * d_out) * BYTES
            linear += platform.op_time_s(flops, num_bytes, gemm=True)
        # Score + context matmuls and softmax are "attention"; the batched
        # small-d_head matmuls run far below GEMM peak.
        attn_flops = 2 * 2.0 * batch * spec.n_heads * r * r * (d // spec.n_heads)
        attn_bytes = (2 * batch * spec.n_heads * r * r + 4 * rows * d) * BYTES
        attention += platform.op_time_s(
            attn_flops, attn_bytes, gemm=True,
            efficiency=platform.attention_efficiency,
        )
        softmax_bytes = 2 * batch * spec.n_heads * r * r * BYTES
        attention += platform.op_time_s(
            5.0 * batch * spec.n_heads * r * r, softmax_bytes, gemm=False
        )
        # LayerNorm, residuals, transposes and IO are "other".
        for _pass in range(4):
            other += platform.op_time_s(
                5.0 * rows * d, 2 * rows * d * BYTES, gemm=False
            )
    return ComponentBreakdown(attention, linear, other)


def fabnet_time_s(platform: Platform, spec: WorkloadSpec, batch: int = 1) -> float:
    """FABNet inference time on a CPU/GPU with fast FFT + butterfly kernels.

    The paper uses cuFFT (``rfft2``) and the Kaleidoscope CUDA butterfly
    kernels; both are modeled at the platform's GEMM efficiency since the
    published kernels are tuned, with FFT/butterfly FLOP counts.
    """
    import math

    r, d = spec.seq_len, spec.d_hidden
    rows = batch * r
    n_ffn = next_power_of_two(spec.d_ffn)
    total = 0.0
    log2 = math.log2
    for mixing, _ in block_layout(spec.n_fbfly, spec.n_abfly, spec.butterfly):
        if mixing == "fourier":
            flops = 5.0 * rows * d * log2(d) + 5.0 * batch * d * r * log2(r)
            num_bytes = 4 * rows * d * BYTES
            total += platform.op_time_s(
                flops, num_bytes, efficiency=platform.butterfly_efficiency
            )
        else:
            for _ in range(4):  # butterfly Q/K/V/O
                flops = 6.0 * rows * (d / 2) * log2(d)
                num_bytes = (2 * rows * d + 2 * d * log2(d)) * BYTES
                total += platform.op_time_s(
                    flops, num_bytes, efficiency=platform.butterfly_efficiency
                )
            attn_flops = 2 * 2.0 * batch * spec.n_heads * r * r * (d // spec.n_heads)
            total += platform.op_time_s(
                attn_flops, 4 * rows * d * BYTES,
                efficiency=platform.attention_efficiency,
            )
        # Butterfly FFN (two layers padded to n_ffn).
        for _ in range(2):
            flops = 6.0 * rows * (n_ffn / 2) * log2(n_ffn)
            num_bytes = (2 * rows * n_ffn + 2 * n_ffn * log2(n_ffn)) * BYTES
            total += platform.op_time_s(
                flops, num_bytes, efficiency=platform.butterfly_efficiency
            )
        for _pass in range(4):  # norms/residuals
            total += platform.op_time_s(5.0 * rows * d, 2 * rows * d * BYTES, gemm=False)
    return total

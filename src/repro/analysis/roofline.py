"""Arithmetic-intensity / roofline analysis of accelerator workloads.

Explains the Fig. 21 bandwidth story quantitatively: each layer kind has
an arithmetic intensity (operations per off-chip byte), and a deployment
with ``P`` total multipliers at clock ``f`` needs bandwidth
``ops_rate / intensity`` to stay compute-bound.  The module computes
per-layer intensities for a workload and the minimum bandwidth at which
a given design saturates — the quantity Fig. 21 sweeps empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..hardware.config import BYTES_PER_VALUE, AcceleratorConfig
from ..hardware.perf import WorkloadSpec
from ..kernels.layout import next_power_of_two


@dataclass(frozen=True)
class LayerIntensity:
    """Ops and off-chip traffic of one layer invocation."""

    name: str
    pair_ops: float
    off_chip_bytes: float

    @property
    def intensity(self) -> float:
        """Butterfly pair-operations per off-chip byte."""
        return self.pair_ops / self.off_chip_bytes


def butterfly_layer_intensity(rows: int, d_in: int, d_out: int,
                              name: str = "bfly") -> LayerIntensity:
    """Intensity of a butterfly linear layer (weights + activations)."""
    n = next_power_of_two(max(d_in, d_out))
    stages = int(math.log2(n))
    pair_ops = rows * stages * (n // 2)
    traffic = (
        rows * d_in + rows * d_out + 4 * (n // 2) * stages
    ) * BYTES_PER_VALUE
    return LayerIntensity(name, pair_ops, traffic)


def fft2_layer_intensity(rows: int, cols: int, name: str = "fft") -> LayerIntensity:
    """Intensity of a 2D FFT tile (complex intermediates spill off-chip)."""
    c = next_power_of_two(cols)
    r = next_power_of_two(rows)
    pair_ops = rows * int(math.log2(c)) * (c // 2) + cols * int(math.log2(r)) * (r // 2)
    real_tile = rows * cols * BYTES_PER_VALUE
    traffic = real_tile * 2 + 2 * real_tile * 2  # in/out + complex spill
    return LayerIntensity(name, pair_ops, traffic)


def workload_intensities(spec: WorkloadSpec) -> List[LayerIntensity]:
    """Per-layer intensities of a FABNet workload (BP layers only)."""
    out: List[LayerIntensity] = []
    r, d = spec.seq_len, spec.d_hidden
    for i in range(spec.n_fbfly):
        out.append(fft2_layer_intensity(r, next_power_of_two(d), f"fft:block{i}"))
        out.append(butterfly_layer_intensity(r, d, spec.d_ffn, f"bfly:block{i}.ffn1"))
        out.append(butterfly_layer_intensity(r, spec.d_ffn, d, f"bfly:block{i}.ffn2"))
    for i in range(spec.n_fbfly, spec.n_total):
        for proj in ("k", "v", "q", "out"):
            out.append(butterfly_layer_intensity(r, d, d, f"bfly:block{i}.{proj}"))
        out.append(butterfly_layer_intensity(r, d, spec.d_ffn, f"bfly:block{i}.ffn1"))
        out.append(butterfly_layer_intensity(r, spec.d_ffn, d, f"bfly:block{i}.ffn2"))
    return out


def saturation_bandwidth_gbs(spec: WorkloadSpec, config: AcceleratorConfig) -> float:
    """Minimum bandwidth (GB/s) making the whole workload compute-bound.

    Computed from the lowest-intensity layer: bandwidth must satisfy
    ``ops_rate / bw_bytes_per_s <= intensity`` for every layer.
    """
    layers = workload_intensities(spec)
    min_intensity = min(layer.intensity for layer in layers)
    ops_per_second = config.pbe * config.pbu * config.clock_mhz * 1e6
    return ops_per_second / min_intensity / 1e9

"""Operation and parameter counting for Transformer / FNet / FABNet.

Conventions: one multiply-accumulate = 2 FLOPs; butterfly pair-ops cost
4 mults + 2 adds = 6 FLOPs; complex FFT butterflies cost 10 real FLOPs
(one complex multiply + two complex adds).  Counts cover the encoder
blocks (the paper's compression ratios compare encoder compute/weights;
embedding tables are excluded, as butterfly compression does not apply
to them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..hardware.perf import WorkloadSpec
from ..kernels.layout import next_power_of_two


def _log2(n: int) -> float:
    return math.log2(n)


# ----------------------------------------------------------------------
# Per-component FLOPs
# ----------------------------------------------------------------------
def dense_linear_flops(rows: int, d_in: int, d_out: int) -> float:
    return 2.0 * rows * d_in * d_out


def butterfly_linear_flops(rows: int, d_in: int, d_out: int) -> float:
    n = next_power_of_two(max(d_in, d_out))
    return 6.0 * rows * (n / 2) * _log2(n)


def attention_core_flops(seq: int, d_hidden: int) -> float:
    """Score (QK^T) + context (SV) matmuls plus the softmax pass."""
    return 2.0 * 2.0 * seq * seq * d_hidden + 5.0 * seq * seq


def fft2_mixing_flops(seq: int, d_hidden: int) -> float:
    """2D FFT over a (seq, d) tile, 10 real FLOPs per complex butterfly."""
    d = next_power_of_two(d_hidden)
    s = next_power_of_two(seq)
    return 10.0 * (seq * (d / 2) * _log2(d) + d_hidden * (s / 2) * _log2(s))


def layernorm_residual_flops(seq: int, d_hidden: int) -> float:
    return 10.0 * seq * d_hidden


# ----------------------------------------------------------------------
# Per-model FLOPs / parameters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpBreakdown:
    """FLOPs split into the Fig. 1 / Fig. 3 component classes."""

    attention: float
    linear: float
    other: float

    @property
    def total(self) -> float:
        return self.attention + self.linear + self.other

    def percentages(self) -> Dict[str, float]:
        return {
            "attention": 100.0 * self.attention / self.total,
            "linear": 100.0 * self.linear / self.total,
            "other": 100.0 * self.other / self.total,
        }


def transformer_flops(spec: WorkloadSpec) -> OpBreakdown:
    """Vanilla Transformer encoder FLOPs by component class."""
    r, d = spec.seq_len, spec.d_hidden
    linear = spec.n_total * (
        4 * dense_linear_flops(r, d, d)
        + dense_linear_flops(r, d, spec.d_ffn)
        + dense_linear_flops(r, spec.d_ffn, d)
    )
    attention = spec.n_total * attention_core_flops(r, d)
    other = spec.n_total * 2 * layernorm_residual_flops(r, d)
    return OpBreakdown(attention, linear, other)


def fnet_flops(spec: WorkloadSpec) -> OpBreakdown:
    """FNet: Fourier mixing + dense FFN."""
    r, d = spec.seq_len, spec.d_hidden
    linear = spec.n_total * (
        dense_linear_flops(r, d, spec.d_ffn) + dense_linear_flops(r, spec.d_ffn, d)
    )
    attention = spec.n_total * fft2_mixing_flops(r, d)  # the mixing component
    other = spec.n_total * 2 * layernorm_residual_flops(r, d)
    return OpBreakdown(attention, linear, other)


def fabnet_flops(spec: WorkloadSpec) -> OpBreakdown:
    """FABNet: FBfly + ABfly blocks with butterfly linear layers."""
    r, d = spec.seq_len, spec.d_hidden
    ffn = butterfly_linear_flops(r, d, spec.d_ffn) + butterfly_linear_flops(
        r, spec.d_ffn, d
    )
    mixing = 0.0
    linear = 0.0
    attention = 0.0
    mixing += spec.n_fbfly * fft2_mixing_flops(r, d)
    linear += spec.n_fbfly * ffn
    attention_proj = 4 * butterfly_linear_flops(r, d, d)
    attention += spec.n_abfly * attention_core_flops(r, d)
    linear += spec.n_abfly * (attention_proj + ffn)
    other = spec.n_total * 2 * layernorm_residual_flops(r, d)
    return OpBreakdown(attention + mixing, linear, other)


# ----------------------------------------------------------------------
def dense_linear_params(d_in: int, d_out: int) -> int:
    return d_in * d_out + d_out


def butterfly_linear_params(d_in: int, d_out: int) -> int:
    n = next_power_of_two(max(d_in, d_out))
    return int(2 * n * _log2(n)) + d_out


def transformer_params(spec: WorkloadSpec) -> int:
    d = spec.d_hidden
    per_layer = (
        4 * dense_linear_params(d, d)
        + dense_linear_params(d, spec.d_ffn)
        + dense_linear_params(spec.d_ffn, d)
        + 4 * d  # two LayerNorms
    )
    return spec.n_total * per_layer


def fnet_params(spec: WorkloadSpec) -> int:
    d = spec.d_hidden
    per_layer = (
        dense_linear_params(d, spec.d_ffn)
        + dense_linear_params(spec.d_ffn, d)
        + 4 * d
    )
    return spec.n_total * per_layer


def fabnet_params(spec: WorkloadSpec) -> int:
    d = spec.d_hidden
    ffn = butterfly_linear_params(d, spec.d_ffn) + butterfly_linear_params(
        spec.d_ffn, d
    )
    fbfly = ffn + 4 * d
    abfly = 4 * butterfly_linear_params(d, d) + ffn + 4 * d
    return spec.n_fbfly * fbfly + spec.n_abfly * abfly


def embedding_params(spec: WorkloadSpec, vocab_size: int) -> int:
    """Token + positional embedding table sizes (shared by all models)."""
    return vocab_size * spec.d_hidden + spec.seq_len * spec.d_hidden


@dataclass(frozen=True)
class CompressionRatios:
    """FLOPs / model-size reduction factors (Fig. 17 bars)."""

    flops_vs_transformer: float
    flops_vs_fnet: float
    params_vs_transformer: float
    params_vs_fnet: float


def compression_ratios(
    fabnet: WorkloadSpec,
    transformer: WorkloadSpec,
    fnet: WorkloadSpec,
    vocab_size: int = 256,
) -> CompressionRatios:
    """Reduction of FABNet over the two baselines at matched workloads.

    Parameter counts include the (uncompressed) embedding tables, which
    all three models share — this is why the paper's model-size reduction
    (2~22x) is much smaller than its FLOPs reduction (10~66x).
    """
    fab_flops = fabnet_flops(fabnet).total
    fab_params = fabnet_params(fabnet) + embedding_params(fabnet, vocab_size)
    t_params = transformer_params(transformer) + embedding_params(transformer, vocab_size)
    f_params = fnet_params(fnet) + embedding_params(fnet, vocab_size)
    return CompressionRatios(
        flops_vs_transformer=transformer_flops(transformer).total / fab_flops,
        flops_vs_fnet=fnet_flops(fnet).total / fab_flops,
        params_vs_transformer=t_params / fab_params,
        params_vs_fnet=f_params / fab_params,
    )

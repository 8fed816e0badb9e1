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

from ..hardware.perf import ComponentBreakdown, WorkloadSpec
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


def attention_core_flops(seq: int, d_hidden: int, n_heads: int) -> float:
    """Score (QK^T) + context (SV) matmuls plus the softmax pass, which
    every head runs over its own ``seq x seq`` scores."""
    return 2.0 * 2.0 * seq * seq * d_hidden + 5.0 * n_heads * seq * seq


def fft2_mixing_flops(seq: int, d_hidden: int) -> float:
    """2D FFT over a (seq, d) tile, 10 real FLOPs per complex butterfly."""
    d = next_power_of_two(d_hidden)
    s = next_power_of_two(seq)
    return 10.0 * (seq * (d / 2) * _log2(d) + d_hidden * (s / 2) * _log2(s))


def layernorm_residual_flops(seq: int, d_hidden: int) -> float:
    return 10.0 * seq * d_hidden


# ----------------------------------------------------------------------
def dense_linear_params(d_in: int, d_out: int) -> int:
    return d_in * d_out + d_out


def butterfly_linear_params(d_in: int, d_out: int) -> int:
    n = next_power_of_two(max(d_in, d_out))
    return int(2 * n * _log2(n)) + d_out


# ----------------------------------------------------------------------
# Per-model FLOPs / parameters: folds over the spec's layers
# ----------------------------------------------------------------------
def model_flops(spec: WorkloadSpec) -> ComponentBreakdown:
    """Encoder FLOPs by component class (Figs. 1 and 17) of the model the
    spec's layout describes: the vanilla Transformer, FNet (whose Fourier
    mixing counts as attention) or FABNet.  GELU is not counted."""
    r, d = spec.seq_len, spec.d_hidden

    def flops(kind: str, d_in: int, d_out: int):
        if kind == "dense":
            return (dense_linear_flops(r, d_in, d_out),)
        if kind == "butterfly":
            return (butterfly_linear_flops(r, d_in, d_out),)
        if kind == "attention":
            return (attention_core_flops(r, d, spec.n_heads),)
        if kind == "fourier":
            return (fft2_mixing_flops(r, d),)
        if kind == "add_norm":
            return (layernorm_residual_flops(r, d),)
        return ()

    return ComponentBreakdown.fold(spec, flops)


def model_params(spec: WorkloadSpec) -> int:
    """Encoder-block parameters of the model the spec's layout describes:
    its linear layers, and each add + norm's LayerNorm gain and bias."""
    total = 0
    for _, _, kind, d_in, d_out in spec.layers():
        if kind == "dense":
            total += dense_linear_params(d_in, d_out)
        elif kind == "butterfly":
            total += butterfly_linear_params(d_in, d_out)
        elif kind == "add_norm":
            total += 2 * d_in
    return total


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
    fab_flops = model_flops(fabnet).total
    fab_params = model_params(fabnet) + embedding_params(fabnet, vocab_size)
    t_params = model_params(transformer) + embedding_params(transformer, vocab_size)
    f_params = model_params(fnet) + embedding_params(fnet, vocab_size)
    return CompressionRatios(
        flops_vs_transformer=model_flops(transformer).total / fab_flops,
        flops_vs_fnet=model_flops(fnet).total / fab_flops,
        params_vs_transformer=t_params / fab_params,
        params_vs_fnet=f_params / fab_params,
    )

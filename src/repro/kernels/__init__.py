"""Unified vectorized butterfly kernel layer.

This package is the single software implementation of the butterfly
stage-apply that the rest of the reproduction builds on — the same
unification the paper achieves in hardware, where one adaptable
Butterfly Engine executes both trainable butterfly linears and FFT
stages.  Consumers:

* :mod:`repro.butterfly` (``ButterflyFactor`` / ``ButterflyMatrix`` /
  ``fft``) delegate their apply and materialize paths here;
* :mod:`repro.nn` registers :func:`butterfly_apply` as a single autograd
  op (one graph node for the whole ``log2 n``-stage ladder);
* :mod:`repro.hardware.functional` keeps its access-accurate banked
  memory model but verifies bit-parity against these kernels.

Layout documentation (pair-major coefficients and their correspondence
to the paper's S2P banked memory) lives in :mod:`repro.kernels.layout`;
the fused batched-GEMM hot path (per-step for training — densified per
call when the layer's fold is small — and frozen once per weight version
for inference) in :mod:`repro.kernels.grouped`; the
dtype policy (float64 default, float32 opt-in) in
:mod:`repro.kernels.dtype`.

Entry points
------------
:func:`butterfly_apply` / :func:`butterfly_apply_vjp` are the recorded
and raw-array entry: they dispatch between the fused grouped kernels
(the per-call grouped kernel for large training and raw-array calls,
run on the identity's rows and one dense GEMM when a recorded fold is
inside the frozen ladder's area budget) and the per-stage vectorized
kernels (small such calls, complex twiddles, partial ladders).  All
paths are loop-free over pairs, and the entry owns a layer's zero-pad
and output slice in every one of them.  A layer's every inference call
is its :class:`FrozenLadder`'s own :meth:`~FrozenLadder.apply`, which
traverses the same fault point and span.

The package also hosts the fused query-tiled attention kernel
(:mod:`repro.kernels.attention`): :func:`attention_forward` /
:func:`attention_vjp` (query-tiled exact softmax, one autograd node per
attention call), :func:`attention_decode` (the KV-cache single-token
fast path) and :func:`attention_reference` (the parity oracle shared
with the hardware attention engine's ``verify=True`` mode) — and the
fused training-step kernels (:mod:`repro.kernels.fused`):
:func:`linear_act_forward` / :func:`linear_act_vjp` (GEMM + bias +
activation with a parameter-cached ``W^T``), :func:`gelu_forward` /
:func:`gelu_vjp` (the one in-place GELU chain, shared with ``nn.gelu``),
:func:`residual_layer_norm_forward` / :func:`residual_layer_norm_vjp`,
:func:`cross_entropy_logits_forward` / :func:`cross_entropy_logits_vjp`,
the real-input Fourier mixing :func:`fourier_mix` and the segment-sum
:func:`embedding_grad`, which the models' training programs chain.
:func:`use_fused` ``(False)`` makes the models record their ``Tensor``
graph, the programs' oracle, instead.

The forward kernels an inference program calls take an optional
``out=``: a C-contiguous array of the result's shape and dtype that
aliases no input (:func:`gelu_forward` alone defines in place) and
receives the bytes the allocating call returns; validation, spans and
fault points stay in the entry point.  Call-local temporaries come from
the per-thread, grow-only, capped :class:`ScratchPool`
(:mod:`repro.kernels.pool`).

Stored-weight inference lives in :mod:`repro.kernels.quant`: per-channel
symmetric int8 quantization (:func:`quantize_per_channel`, optional
MSE calibration), the dequant-on-the-fly GEMM over codes packed once
into the blocks it reads (:func:`pack_weight`, :class:`PackedWeight`,
:func:`quantized_linear`) and the stored butterfly ladder apply
(:func:`quantized_butterfly_apply`), both over int8 codes with fp32
scales — the one quantizer.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import fault_point
from ..telemetry import span
from .attention import (
    DEFAULT_BLOCK,
    AttentionContext,
    attention_decode,
    attention_forward,
    attention_reference,
    attention_vjp,
    causal_bias,
    expected_macs,
    padding_bias,
)
from .dtype import (
    STORAGE_DTYPES,
    compute_dtype,
    default_dtype,
    get_default_dtype,
    mask_fill_value,
    set_default_dtype,
)
from .fft import (
    fft_forward,
    fft_stage_coeffs,
    fft_stage_forward,
    fft_twiddles,
)
from .fused import (
    ACTIVATIONS,
    CrossEntropyContext,
    LinearActContext,
    ResidualLNContext,
    cached_transpose,
    cross_entropy_logits_forward,
    cross_entropy_logits_vjp,
    embedding_grad,
    fourier_mix,
    fused_enabled,
    gelu_forward,
    gelu_vjp,
    linear_act_forward,
    linear_act_vjp,
    residual_layer_norm_forward,
    residual_layer_norm_vjp,
    use_fused,
)
from .grouped import (
    MAX_GROUP,
    MIN_STAGES,
    MIN_WORK,
    FrozenLadder,
    FrozenLadderCache,
    GroupedContext,
    GroupedPlan,
    dense_by_area,
    dense_forward,
    dense_vjp,
    get_plan,
    grouped_forward,
    grouped_vjp,
)
from .layout import (
    bit_reversal_permutation,
    check_power_of_two,
    check_stage,
    num_stages,
    pair_index_of,
    pair_indices,
    stage_halves,
)
from .pool import ScratchPool, fresh
from .quant import (
    CALIBRATION_GRID,
    QMAX,
    SCRATCH_TARGET_BYTES,
    PackedWeight,
    absmax_scales,
    calibrate_scales,
    dequantize,
    dequantize_butterfly_stages,
    pack_weight,
    quantization_rmse,
    quantize_butterfly_stages,
    quantize_per_channel,
    quantized_butterfly_apply,
    quantized_linear,
    quantized_linear_reference,
)
from .stage import stage_dense, stage_forward, stage_vjp


def _is_full_ladder(n: int, halves: Sequence[int]) -> bool:
    if n < 2 or (n & (n - 1)) != 0:
        # Non-power-of-two sizes are legal for single stages (divisible
        # blocks); they just can't take the grouped full-ladder path.
        return False
    return list(halves) == stage_halves(n)


def _use_grouped(rows: int, n: int, arrays: Sequence[np.ndarray], halves) -> bool:
    if n < (1 << MIN_STAGES) or not _is_full_ladder(n, halves):
        return False
    if rows * n < MIN_WORK:
        return False
    return not any(np.iscomplexobj(a) for a in arrays)


def _pad_last(x: np.ndarray, n: int, take: Callable = fresh) -> np.ndarray:
    # Slice assignments: np.pad's generic machinery costs ~20 us per call
    # whatever the size.
    width = x.shape[-1]
    if width == n:
        return x
    out = take("butterfly.pad", x.shape[:-1] + (n,), x.dtype)
    out[..., :width] = x
    out[..., width:] = 0
    return out


def _head(x: np.ndarray, width: int) -> np.ndarray:
    return x if x.shape[-1] == width else x[..., :width]


def butterfly_apply(
    x: np.ndarray,
    coeffs: Sequence[np.ndarray],
    halves: Sequence[int],
    need_ctx: bool = True,
    in_features: Optional[int] = None,
    out_features: Optional[int] = None,
    take: Callable = fresh,
) -> Tuple[np.ndarray, Optional[tuple]]:
    """Apply a ladder of butterfly stages to the last axis of ``x``.

    ``coeffs[s]`` is the ``(4, n/2)`` pair-major array of stage
    ``halves[s]``; stages are applied in order.  Returns ``(y, ctx)``
    where ``ctx`` (when ``need_ctx``) feeds :func:`butterfly_apply_vjp`.
    Arbitrary leading batch dimensions are supported.

    ``in_features`` / ``out_features`` are a layer's fold of the ``n``
    wide ladder (``n`` is read off ``coeffs``): ``x`` is ``(...,
    in_features)``, zero-padded to ``n`` here, and the result the first
    ``out_features`` columns; the VJP undoes both.  Each defaults to
    ``n``.

    The recorded / raw-array entry: inference over a layer's parameters
    calls its :class:`FrozenLadder`'s ``apply`` directly instead.  Every
    call here pays for what it builds — training steps because the
    weights move, raw-array callers because there is nothing to validate
    a cache against — so real full power-of-two ladders take the fused
    grouped kernel only above :data:`MIN_STAGES` /
    :data:`MIN_WORK` and the per-stage chain below; complex (FFT) stages
    and partial ladders always take the chain.  Of the calls the grouped
    kernel takes, one that wants a context, whose fold passes the frozen
    ladder's area rule (``in_features * out_features <= DENSE_MAX_N *
    n``) and that brings at least ``in_features`` rows runs densified
    instead (:func:`repro.kernels.grouped.dense_forward`): the ladder
    and its VJP see the ``in_features`` identity rows, the call's rows
    one GEMM each way.  On those two paths the result, the context and
    the VJP's outputs are ``take`` buffers (see :mod:`repro.kernels.pool`);
    the per-stage chain allocates.
    """
    x = np.asarray(x)
    coeffs = [np.asarray(c) for c in coeffs]
    if len(coeffs) != len(halves):
        raise ValueError(
            f"got {len(coeffs)} coefficient arrays for {len(halves)} stages"
        )
    fault_point("kernels.butterfly_apply", stages=len(halves))
    lead = x.shape[:-1]
    rows = math.prod(lead)
    n = 2 * coeffs[0].shape[-1] if coeffs else x.shape[-1]
    in_features = n if in_features is None else in_features
    out_features = n if out_features is None else out_features
    if x.shape[-1] != in_features:
        raise ValueError(f"expected input dim {in_features}, got {x.shape[-1]}")
    widths = (in_features, n)
    if _use_grouped(rows, n, [x, *coeffs], halves):
        plan = get_plan(n, len(halves))
        if (need_ctx and rows >= in_features
                and dense_by_area(in_features, out_features, n)):
            with span("kernels.butterfly_apply", n=n, rows=rows, path="dense"):
                y, dctx = dense_forward(x.reshape(rows, in_features), coeffs,
                                        plan, out_features, take)
            return (y.reshape(*lead, out_features),
                    ("dense", lead, widths, dctx))
        with span("kernels.butterfly_apply", n=n, rows=rows, path="grouped"):
            y, gctx = grouped_forward(_pad_last(x, n, take).reshape(rows, n),
                                      coeffs, plan, need_ctx, take)
        ctx = ("grouped", lead, widths, gctx) if need_ctx else None
        return _head(y.reshape(*lead, n), out_features), ctx
    with span("kernels.butterfly_apply", n=n, path="stages"):
        saved = [] if need_ctx else None
        out = _pad_last(x, n)
        for c, half in zip(coeffs, halves):
            if need_ctx:
                saved.append(out)  # each stage's input is all the VJP needs
            out = stage_forward(out, c, half)
    ctx = (("stages", lead, widths, (saved, coeffs, list(halves)))
           if need_ctx else None)
    return _head(out, out_features), ctx


def butterfly_apply_vjp(
    grad: np.ndarray, ctx: tuple
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """VJP of :func:`butterfly_apply`: ``(grad_x, [grad_coeffs per stage])``."""
    kind, lead, (in_features, n), saved = ctx
    grad = np.asarray(grad)
    rows = math.prod(lead)
    if kind == "dense":
        with span("kernels.butterfly_apply_vjp", n=n, rows=rows, path="dense"):
            gx, gcoeffs = dense_vjp(grad.reshape(rows, -1), saved)
        return gx.reshape(*lead, in_features), gcoeffs
    if kind == "grouped":
        grad = _pad_last(grad, n, saved.plan.scratch)  # read once, by the VJP
        with span("kernels.butterfly_apply_vjp", n=n, rows=rows,
                  path="grouped"):
            gx, gcoeffs = grouped_vjp(grad.reshape(rows, n), saved)
        return _head(gx.reshape(*lead, n), in_features), gcoeffs
    inputs, coeffs, halves = saved
    with span("kernels.butterfly_apply_vjp", path="stages"):
        g = _pad_last(grad, n)
        gcoeffs: List[Optional[np.ndarray]] = [None] * len(coeffs)
        for s in range(len(coeffs) - 1, -1, -1):
            g, gcoeffs[s] = stage_vjp(g, inputs[s], coeffs[s], halves[s])
    return _head(g, in_features), gcoeffs


def butterfly_apply_reference(
    x: np.ndarray, coeffs: Sequence[np.ndarray], halves: Sequence[int]
) -> np.ndarray:
    """Per-stage reference apply (no fusion) — the parity-check oracle.

    Used by the hardware functional model and the golden-parity tests to
    validate both the grouped fast path and the banked-memory engine
    against one shared implementation.
    """
    out = np.asarray(x)
    for c, half in zip(coeffs, halves):
        out = stage_forward(out, np.asarray(c), half)
    return out


__all__ = [
    "ACTIVATIONS",
    "CALIBRATION_GRID",
    "DEFAULT_BLOCK",
    "MAX_GROUP",
    "MIN_STAGES",
    "MIN_WORK",
    "QMAX",
    "SCRATCH_TARGET_BYTES",
    "STORAGE_DTYPES",
    "AttentionContext",
    "CrossEntropyContext",
    "FrozenLadder",
    "FrozenLadderCache",
    "GroupedContext",
    "GroupedPlan",
    "LinearActContext",
    "PackedWeight",
    "ResidualLNContext",
    "ScratchPool",
    "absmax_scales",
    "attention_decode",
    "attention_forward",
    "attention_reference",
    "attention_vjp",
    "causal_bias",
    "expected_macs",
    "mask_fill_value",
    "padding_bias",
    "bit_reversal_permutation",
    "butterfly_apply",
    "butterfly_apply_reference",
    "butterfly_apply_vjp",
    "cached_transpose",
    "calibrate_scales",
    "check_power_of_two",
    "check_stage",
    "compute_dtype",
    "cross_entropy_logits_forward",
    "cross_entropy_logits_vjp",
    "default_dtype",
    "dequantize",
    "dequantize_butterfly_stages",
    "embedding_grad",
    "fft_forward",
    "fft_stage_coeffs",
    "fft_stage_forward",
    "fft_twiddles",
    "fourier_mix",
    "fused_enabled",
    "get_default_dtype",
    "get_plan",
    "gelu_forward",
    "gelu_vjp",
    "grouped_forward",
    "grouped_vjp",
    "linear_act_forward",
    "linear_act_vjp",
    "num_stages",
    "pack_weight",
    "pair_index_of",
    "pair_indices",
    "quantization_rmse",
    "quantize_butterfly_stages",
    "quantize_per_channel",
    "quantized_butterfly_apply",
    "quantized_linear",
    "quantized_linear_reference",
    "residual_layer_norm_forward",
    "residual_layer_norm_vjp",
    "set_default_dtype",
    "stage_dense",
    "stage_forward",
    "stage_halves",
    "stage_vjp",
    "use_fused",
]

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
the fused batched-GEMM hot path (per-step for training, frozen once per
weight version for inference) in :mod:`repro.kernels.grouped`; the
dtype policy (float64 default, float32 opt-in) in
:mod:`repro.kernels.dtype`.

Entry points
------------
:func:`butterfly_apply` / :func:`butterfly_apply_vjp` dispatch between
the fused grouped kernels (real power-of-two ladders: a layer's
:class:`FrozenLadder` for its every inference call, the per-call
grouped kernel for large training and raw-array calls) and the
per-stage vectorized kernels (small such calls, complex twiddles,
partial ladders).  All paths are loop-free over pairs.

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
:func:`cross_entropy_logits_forward` / :func:`cross_entropy_logits_vjp`
and the segment-sum :func:`embedding_grad`, all toggleable back to the
composite graph via :func:`use_fused`.

Stored-weight inference lives in :mod:`repro.kernels.quant`: per-channel
symmetric int8 quantization (:func:`quantize_per_channel`, optional
MSE calibration), the blocked dequant-on-the-fly GEMM
(:func:`quantized_linear`) and the stored butterfly ladder apply
(:func:`quantized_butterfly_apply`) — both take int8 codes with scales
or fp16 weights with ``scales=None`` — sharing one quantizer with the
hardware model's verify mode (:mod:`repro.hardware.quantize`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
from .autotune import (
    autotune_enabled,
    autotune_sweep,
    cache_path as autotune_cache_path,
    get_tuned,
    shape_class,
)
from .backend import (
    KernelBackend,
    SerialBackend,
    ThreadedBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from .dtype import (
    STORAGE_DTYPES,
    compute_dtype,
    default_dtype,
    get_default_dtype,
    mask_fill_value,
    promote_storage,
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
    fused_enabled,
    gelu_forward,
    gelu_vjp,
    linear_act_forward,
    linear_act_vjp,
    residual_layer_norm_forward,
    residual_layer_norm_vjp,
    set_fused_enabled,
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
from .quant import (
    CALIBRATION_GRID,
    QMAX,
    SCRATCH_TARGET_BYTES,
    absmax_scales,
    calibrate_scales,
    dequantize,
    dequantize_butterfly_stages,
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


def _use_grouped(x: np.ndarray, coeffs: Sequence[np.ndarray], halves) -> bool:
    n = x.shape[-1]
    if n < (1 << MIN_STAGES) or not _is_full_ladder(n, halves):
        return False
    if x.size < MIN_WORK:
        return False
    if np.iscomplexobj(x) or any(np.iscomplexobj(c) for c in coeffs):
        return False
    return True


def butterfly_apply(
    x: np.ndarray,
    coeffs: Sequence[np.ndarray],
    halves: Sequence[int],
    need_ctx: bool = True,
    backend=None,
    ladder: Optional[FrozenLadder] = None,
) -> Tuple[np.ndarray, Optional[tuple]]:
    """Apply a ladder of butterfly stages to the last axis of ``x``.

    ``coeffs[s]`` is the ``(4, n/2)`` pair-major array of stage
    ``halves[s]``; stages are applied in order.  Returns ``(y, ctx)``
    where ``ctx`` (when ``need_ctx``) feeds :func:`butterfly_apply_vjp`.
    Arbitrary leading batch dimensions are supported.  ``backend``
    overrides the active :mod:`kernel backend <repro.kernels.backend>`
    for the GEMM paths (execution only — results are identical).

    **Inference over a layer's parameters**: the layer passes the
    :class:`FrozenLadder` its :class:`FrozenLadderCache` holds for
    ``coeffs`` (``need_ctx`` must be off) and the call is that ladder's
    ``apply``, at every ``(rows, n)`` — ``x`` is then ``(...,
    ladder.in_features)`` and the result ``(..., ladder.out_features)``.

    **Every other call** pays for what it builds — training steps
    because the weights move, raw-array callers because there is nothing
    to validate a cache against — so real full power-of-two ladders
    take the fused grouped kernel only above :data:`MIN_STAGES` /
    :data:`MIN_WORK` and the per-stage chain below; complex (FFT) stages
    and partial ladders always take the chain.
    """
    x = np.asarray(x)
    coeffs = [np.asarray(c) for c in coeffs]
    if len(coeffs) != len(halves):
        raise ValueError(
            f"got {len(coeffs)} coefficient arrays for {len(halves)} stages"
        )
    fault_point("kernels.butterfly_apply", stages=len(halves))
    if ladder is not None:
        if need_ctx:
            raise ValueError("a frozen ladder has no VJP context to give")
        with span("kernels.butterfly_apply", n=ladder.plan.n, path="frozen"):
            return ladder.apply(x, backend), None
    n = x.shape[-1]
    lead = x.shape[:-1]
    if _use_grouped(x, coeffs, halves):
        rows = int(np.prod(lead)) if lead else 1
        plan = get_plan(n, len(halves))
        with span("kernels.butterfly_apply", n=n, rows=rows, path="grouped"):
            y, gctx = grouped_forward(x.reshape(rows, n), coeffs, plan,
                                      need_ctx=need_ctx, backend=backend)
        ctx = ("grouped", lead, gctx) if need_ctx else None
        return y.reshape(*lead, n), ctx
    with span("kernels.butterfly_apply", n=n, path="stages"):
        saved = [] if need_ctx else None
        out = x
        for c, half in zip(coeffs, halves):
            if need_ctx:
                saved.append(out)  # each stage's input is all the VJP needs
            out = stage_forward(out, c, half)
    ctx = ("stages", lead, saved, coeffs, list(halves)) if need_ctx else None
    return out, ctx


def butterfly_apply_vjp(
    grad: np.ndarray, ctx: tuple, backend=None
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """VJP of :func:`butterfly_apply`: ``(grad_x, [grad_coeffs per stage])``."""
    kind = ctx[0]
    if kind == "grouped":
        _, lead, gctx = ctx
        n = gctx.plan.n
        rows = gctx.rows
        with span("kernels.butterfly_apply_vjp", n=n, rows=rows,
                  path="grouped"):
            gx, gcoeffs = grouped_vjp(np.asarray(grad).reshape(rows, n), gctx,
                                      backend=backend)
        return gx.reshape(*lead, n), gcoeffs
    _, lead, saved, coeffs, halves = ctx
    with span("kernels.butterfly_apply_vjp", path="stages"):
        g = np.asarray(grad)
        gcoeffs: List[Optional[np.ndarray]] = [None] * len(coeffs)
        for s in range(len(coeffs) - 1, -1, -1):
            g, gcoeffs[s] = stage_vjp(g, saved[s], coeffs[s], halves[s])
    return g, gcoeffs


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
    "KernelBackend",
    "LinearActContext",
    "ResidualLNContext",
    "SerialBackend",
    "ThreadedBackend",
    "absmax_scales",
    "autotune_cache_path",
    "autotune_enabled",
    "autotune_sweep",
    "available_backends",
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
    "fused_enabled",
    "get_backend",
    "get_default_dtype",
    "get_plan",
    "get_tuned",
    "gelu_forward",
    "gelu_vjp",
    "grouped_forward",
    "grouped_vjp",
    "linear_act_forward",
    "linear_act_vjp",
    "num_stages",
    "pair_index_of",
    "pair_indices",
    "promote_storage",
    "quantization_rmse",
    "quantize_butterfly_stages",
    "quantize_per_channel",
    "quantized_butterfly_apply",
    "quantized_linear",
    "quantized_linear_reference",
    "register_backend",
    "residual_layer_norm_forward",
    "residual_layer_norm_vjp",
    "resolve_backend",
    "set_backend",
    "set_default_dtype",
    "set_fused_enabled",
    "shape_class",
    "stage_dense",
    "stage_forward",
    "stage_halves",
    "stage_vjp",
    "use_backend",
    "use_fused",
]

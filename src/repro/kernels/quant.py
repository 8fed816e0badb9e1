"""Stored-weight kernels (int8 codes): the software decode datapath.

The paper's accelerator executes butterfly and attention workloads in
reduced precision; :mod:`repro.hardware.quantize` models what that does
to accuracy.  This module is the *runnable* counterpart: per-channel
symmetric int8 weight quantization plus dequant-on-the-fly kernels, so
the quantized numbers the simulator reports have an executable software
path (the codesign loop closed in both directions).

Scheme — per-channel symmetric int8, scales in fp32:

* each output channel ``o`` of a ``(out, in)`` weight gets one scale
  ``s_o``; codes are ``q = clip(rint(w / s_o), -127, 127)`` (round half
  to even, the IEEE default);
* ``s_o = absmax_o / 127`` by default, or an MSE-calibrated shrink of it
  (:func:`calibrate_scales` grid-searches a per-channel shrink factor —
  the cheap weight-distribution calibration pass used by
  ``quantize_for_inference``);
* dequantization is exact multiplication: ``w_hat = q * s_o``.

Execution — :func:`quantized_linear` never materializes the full
dequantized matrix.  A layer's codes are packed **once**, when the layer
is built (:func:`pack_weight`), into the layout the GEMM reads: one
C-contiguous ``(in, rows)`` block per block of output channels
(:class:`PackedWeight`, the only copy of the codes the layer holds).  A
call is one loop over those blocks: a straight ``stored -> fp`` copy
into a cache-resident scratch, ``x @ scratch`` into the block's output
columns, then one per-channel scale of the accumulator.  ``rows`` comes
from one rule, :func:`block_rows` — BLAS picks its micro-kernel by
column count, so the block size is part of the function's bytes and is
pinned in source, not tuned per machine.  A batch-8 decode GEMM is
memory-bound on weight traffic, so reading int8 instead of fp32 is what
the e2e ``decode_int8`` workload's speed comes from — the same bandwidth
argument the paper makes for its reduced-precision buffers, whose data
layout is likewise chosen for the datapath that reads them.  The scratch
is one pooled buffer per dtype and thread, like the grouped butterfly
plans'; butterfly-stage quantization reuses the existing plan cache by
dequantizing the (tiny) stage coefficients and dispatching to
:func:`repro.kernels.butterfly_apply`.

Stored format — a weight is ``(codes, scales)``: int8 codes with
per-channel fp32 ``scales``, the one stored format.

The activation dtype follows the inputs (float32/float64 under the
:mod:`repro.kernels.dtype` policy; fp16 activations compute one tier
wider and are cast back); only weights are stored narrow.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import span
from .dtype import compute_dtype
from .pool import ScratchPool

#: Quantized code range: symmetric int8 without -128, so negation is
#: closed and the hardware's sign-magnitude multipliers need no special
#: case (the convention of the int8 accelerator literature).
QMAX = 127

#: Dequant scratch sizing: a block's ``(in, rows)`` fp copy is at most this
#: many bytes (:func:`block_rows`), so it stays cache-resident while the
#: stored stream is the only DRAM traffic.  Min-of-9 fp32 ms at 8 rows (a
#: decode step), parent layout (48 / 12 rows, ``x @ block.T``) -> packed
#: at a 128 KB / 256 KB target: ``(512, 512)`` 0.107 -> 0.087 / 0.085,
#: ``(2048, 512)`` 0.446 -> 0.367 / 0.324, ``(512, 2048)`` 0.462 -> 0.439 /
#: 0.313.  Only at 16 rows is the smaller target ahead (0.142 -> 0.117 /
#: 0.154, 0.639 -> 0.546 / 0.673, 0.759 -> 0.692 / 0.682), a height only a
#: short prompt admitted alone reaches: the scheduler prefills ``prompt x
#: wave`` rows per call (128 for eight 16-token prompts).
SCRATCH_TARGET_BYTES = 256 * 1024

#: Per-channel shrink factors tried by the MSE calibration grid search.
CALIBRATION_GRID = (1.0, 0.95, 0.9, 0.85, 0.8)

#: The dequant scratch, pooled *per thread*: two threads forwarding one
#: stored model would otherwise be handed the same buffer.
_SCRATCH = ScratchPool("kernels_quant_scratch")


def absmax_scales(w: np.ndarray) -> np.ndarray:
    """Per-channel (per-row) symmetric scales ``absmax / 127`` as fp32.

    ``w`` is ``(channels, elements)``; all-zero channels get scale 1.0
    so their codes (all zero) still dequantize exactly.
    """
    absmax = np.abs(w).max(axis=-1)
    return np.where(absmax > 0.0, absmax / QMAX, 1.0).astype(np.float32)


def calibrate_scales(
    w: np.ndarray, grid: Sequence[float] = CALIBRATION_GRID
) -> np.ndarray:
    """MSE-calibrated per-channel scales: grid-search a shrink of absmax.

    Clipping a heavy-tailed channel slightly (shrinking its scale below
    ``absmax/127``) trades a few saturated outliers for a finer grid on
    the bulk of the weights; this pass picks, per channel, the shrink in
    ``grid`` minimizing the round-trip MSE.  Pure weight-distribution
    calibration — no activation data needed.
    """
    w = np.asarray(w, dtype=np.float64)
    base = absmax_scales(w).astype(np.float64)
    best_scales = base.copy()
    best_err = np.full(w.shape[0], np.inf)
    for shrink in grid:
        scales = base * shrink
        q = np.clip(np.rint(w / scales[:, None]), -QMAX, QMAX)
        err = np.square(q * scales[:, None] - w).mean(axis=-1)
        better = err < best_err
        best_err[better] = err[better]
        best_scales[better] = scales[better]
    return best_scales.astype(np.float32)


_CALIBRATIONS = {"absmax": absmax_scales, "mse": calibrate_scales}


def check_calibration(calibration: str) -> None:
    """Reject an unknown scale-search name, before any weight is touched."""
    if calibration not in _CALIBRATIONS:
        raise ValueError(
            f"calibration must be 'absmax' or 'mse', got {calibration!r}"
        )


def quantize_per_channel(
    w: np.ndarray, calibration: str = "absmax"
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize ``(channels, elements)`` weights to ``(int8 codes, fp32 scales)``.

    ``calibration`` is ``"absmax"`` (exact range cover) or ``"mse"``
    (per-channel clipped grid search, :func:`calibrate_scales`).  Codes
    use round-half-to-even and saturate at ±127.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected 2-D (channels, elements) weights, got {w.shape}")
    check_calibration(calibration)
    scales = _CALIBRATIONS[calibration](w)
    q = np.clip(np.rint(w / scales[:, None]), -QMAX, QMAX).astype(np.int8)
    return q, scales


def dequantize(q: np.ndarray, scales: np.ndarray, dtype=None) -> np.ndarray:
    """The stored weight in ``dtype``: exactly ``q * scales`` per channel row."""
    dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float32)
    return q.astype(dtype) * scales.astype(dtype)[:, None]


# ----------------------------------------------------------------------
# Packed layout and the dequant-on-the-fly GEMM
# ----------------------------------------------------------------------
def block_rows(in_features: int, itemsize: int) -> int:
    """Output channels per block — the one rule, a function of the
    contraction length and the compute itemsize only: the widest block
    whose dequantized ``(in, rows)`` copy fits :data:`SCRATCH_TARGET_BYTES`
    (never under 8 channels, however long the contraction)."""
    return max(8, SCRATCH_TARGET_BYTES // max(1, in_features * itemsize))


def check_stored(q_weight, scales, bias=None) -> None:
    """Refuse a stored ``(codes, scales, bias)`` triple that is not one
    weight: 2-D int8 codes with a 1-D fp32 scale per output channel;
    ``bias`` ``None`` or one per channel."""
    if len(q_weight.shape) != 2:
        raise ValueError(
            f"q_weight must be 2-D (out, in) codes, got shape {q_weight.shape}"
        )
    if q_weight.dtype != np.int8:
        raise TypeError(
            "q_weight must be int8 codes (the one stored format), "
            f"got {q_weight.dtype}"
        )
    out_features = q_weight.shape[0]
    if (
        getattr(scales, "dtype", None) != np.float32
        or scales.shape != (out_features,)
    ):
        raise ValueError(
            f"scales must be 1-D float32 of length {out_features}, "
            f"got {_describe(scales)}"
        )
    if bias is not None and np.shape(bias) != (out_features,):
        raise ValueError(
            f"bias must be None or 1-D of length {out_features}, "
            f"got {_describe(bias)}"
        )


def _describe(array) -> str:
    return f"{getattr(array, 'dtype', type(array).__name__)} {np.shape(array)}"


class PackedWeight:
    """A stored ``(out, in)`` weight laid out the way the GEMM reads it.

    One C-contiguous ``(in, rows)`` code block per block of output
    channels (``blocks`` holds ``(o0, o1, codes[o0:o1].T)``; the last one
    may be narrower), so a block is dequantized by one straight copy and
    multiplied as ``x @ block`` — no transposed operand.  This is the
    only copy of the codes a layer holds: ``shape``, ``dtype`` and
    ``nbytes`` are those of the ``(out, in)`` array :meth:`unpack`
    returns.
    """

    __slots__ = ("shape", "dtype", "blocks", "rows")

    def __init__(self, shape, dtype, blocks) -> None:
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.blocks = blocks
        self.rows = max((o1 - o0 for o0, o1, _ in blocks), default=0)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for _, _, block in self.blocks)

    def unpack(self) -> np.ndarray:
        """The ``(out, in)`` codes, element for element as they were packed."""
        codes = np.empty(self.shape, dtype=self.dtype)
        for o0, o1, block in self.blocks:
            codes[o0:o1] = block.T
        return codes


def pack_weight(q_weight, scales, bias=None, *, itemsize: int = 4) -> PackedWeight:
    """Validate a stored weight once (:func:`check_stored`) and lay its
    codes out in :func:`block_rows` ``(in_features, itemsize)`` blocks;
    ``itemsize`` is that of the dtype the layer will compute in.  An
    already packed weight is validated and returned as it is."""
    check_stored(q_weight, scales, bias)
    if isinstance(q_weight, PackedWeight):
        return q_weight
    in_features = q_weight.shape[1]
    data = np.empty(q_weight.size, dtype=q_weight.dtype)  # blocks back to back
    blocks = []
    for o0, o1, view in _transposed_blocks(q_weight, block_rows(in_features, itemsize)):
        block = data[o0 * in_features:o1 * in_features].reshape(view.shape)
        np.copyto(block, view)
        blocks.append((o0, o1, block))
    return PackedWeight(q_weight.shape, q_weight.dtype, blocks)


def _transposed_blocks(q_weight: np.ndarray, rows: int) -> list:
    """A plain ``(out, in)`` array as the blocks :func:`pack_weight` makes
    of it, each a transposed view instead of a contiguous copy."""
    out_features = q_weight.shape[0]
    return [
        (o0, min(o0 + rows, out_features), q_weight[o0:o0 + rows].T)
        for o0 in range(0, out_features, rows)
    ]


def quantized_linear(
    x: np.ndarray,
    q_weight,
    scales: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``x @ dequant(q_weight)^T + bias`` without materializing the weight.

    ``x`` is ``(..., in)``; ``q_weight`` is the ``(out, in)`` int8 codes
    of a weight with per-output-channel ``scales``, as a :class:`PackedWeight` (what a layer holds:
    validated when it was packed, not here) or as a plain array, which
    is validated on every call and read as the same blocks through
    transposed views: a slower source for identical scratch contents and
    GEMMs, so both give the same bytes.  Each block is one ``stored ->
    fp`` copy into a cache-resident scratch and one GEMM; the
    per-channel scale is applied once to the ``(..., out)`` accumulator,
    which is tiny next to the weight.

    The arithmetic runs in :func:`compute_dtype(x.dtype)
    <repro.kernels.dtype.compute_dtype>` (int8 codes have no float tier
    of their own) — the software analogue of wide accumulators over
    narrow buffers.  The result is cast back to ``x``'s dtype, so an
    fp16 activation stream stays fp16 end to end and float32/float64
    activations are never copied.
    """
    x = np.asarray(x)
    cdt = compute_dtype(x.dtype)
    if isinstance(q_weight, PackedWeight):
        blocks, rows = q_weight.blocks, q_weight.rows
    else:
        check_stored(q_weight, scales, bias)
        rows = block_rows(q_weight.shape[1], cdt.itemsize)
        blocks = _transposed_blocks(q_weight, rows)
    out_features, in_features = q_weight.shape
    if x.shape[-1] != in_features:
        raise ValueError(
            f"input dim {x.shape[-1]} does not match weight in dim {in_features}"
        )
    lead = x.shape[:-1]
    x2 = np.asarray(x.reshape(-1, in_features), dtype=cdt)
    out = np.empty((x2.shape[0], out_features), dtype=cdt)
    buf = _SCRATCH.take("block", (in_features * rows,), cdt)
    with span("kernels.quantized_linear", rows=x2.shape[0], out=out_features):
        for o0, o1, block in blocks:
            scratch = buf[:block.size].reshape(block.shape)
            np.copyto(scratch, block)  # stored -> fp (unscaled)
            np.matmul(x2, scratch, out=out[:, o0:o1])
        out *= scales
        if bias is not None:
            out += bias
    return out.reshape(*lead, out_features).astype(x.dtype, copy=False)


def quantized_linear_reference(
    x: np.ndarray,
    q_weight: np.ndarray,
    scales: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unblocked oracle for :func:`quantized_linear` (parity tests)."""
    x = np.asarray(x)
    cdt = compute_dtype(x.dtype)
    out = np.matmul(x.astype(cdt), q_weight.T.astype(cdt))
    out *= scales
    if bias is not None:
        out += bias
    return out.astype(x.dtype, copy=False)


# ----------------------------------------------------------------------
# Stored butterfly ladders
# ----------------------------------------------------------------------
def quantize_butterfly_stages(
    coeffs: Sequence[np.ndarray], calibration: str = "absmax"
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Quantize a ladder's ``(4, n/2)`` stage tensors to int8.

    Each of the four coefficient roles (the ``a, b, c, d`` entries of
    the 2x2 pair blocks — the four multiplier operands of the hardware
    Butterfly Unit) is one quantization channel, so a stage carries four
    fp32 scales.  Returns ``(codes per stage, scales per stage)``.
    """
    qs: List[np.ndarray] = []
    scales: List[np.ndarray] = []
    for c in coeffs:
        c = np.asarray(c)
        if c.ndim != 2 or c.shape[0] != 4:
            raise ValueError(f"stage coeffs must be (4, n/2), got {c.shape}")
        q, s = quantize_per_channel(c, calibration=calibration)
        qs.append(q)
        scales.append(s)
    return qs, scales


def dequantize_butterfly_stages(
    q_stages: Sequence[np.ndarray],
    stage_scales: Sequence[np.ndarray],
    dtype=None,
) -> List[np.ndarray]:
    """Exact fp stage tensors from stored stages."""
    return [
        dequantize(q, s, dtype=dtype) for q, s in zip(q_stages, stage_scales)
    ]


def quantized_butterfly_apply(
    x: np.ndarray,
    q_stages: Sequence[np.ndarray],
    stage_scales: Sequence[np.ndarray],
    halves: Sequence[int],
) -> np.ndarray:
    """Apply a stored int8 butterfly ladder to the last axis of ``x``.

    Stage coefficients are ``O(n)`` while activations are ``O(batch *
    n)``, so dequantizing the stages on the fly is cheap; the apply then
    rides the existing fused grouped kernel and its plan/scratch caches
    (:func:`repro.kernels.butterfly_apply` with ``need_ctx=False`` —
    inference only, no VJP context).  Compute dtype and the cast back
    follow :func:`quantized_linear`.
    """
    from . import butterfly_apply  # local import: package init imports us

    x = np.asarray(x)
    cdt = compute_dtype(x.dtype)
    coeffs = dequantize_butterfly_stages(q_stages, stage_scales, dtype=cdt)
    y, _ = butterfly_apply(np.asarray(x, dtype=cdt), coeffs, halves, need_ctx=False)
    return y.astype(x.dtype, copy=False)


# ----------------------------------------------------------------------
# Error accounting shared by tests and the nn transform
# ----------------------------------------------------------------------
def quantization_rmse(w: np.ndarray, q: np.ndarray, scales: np.ndarray) -> float:
    """Root-mean-square round-trip error of a stored weight."""
    w_hat = dequantize(q, scales, dtype=np.float64)
    return float(np.sqrt(np.square(w_hat - np.asarray(w, dtype=np.float64)).mean()))

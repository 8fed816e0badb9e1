"""Stored-weight kernels (int8 codes / fp16): the software decode datapath.

The paper's accelerator executes butterfly and attention workloads in
reduced precision; :mod:`repro.hardware.quantize` models what that does
to accuracy.  This module is the *runnable* counterpart: per-channel
symmetric int8 weight quantization plus dequant-on-the-fly kernels, so
the quantized numbers the simulator reports have an executable software
path (the codesign loop closed in both directions).

Scheme — per-channel symmetric int8, scales in fp32:

* each output channel ``o`` of a ``(out, in)`` weight gets one scale
  ``s_o``; codes are ``q = clip(rint(w / s_o), -127, 127)`` (round half
  to even, the IEEE default shared with the hardware quantizer model,
  which asserts bit-level agreement in its verify mode);
* ``s_o = absmax_o / 127`` by default, or an MSE-calibrated shrink of it
  (:func:`calibrate_scales` grid-searches a per-channel shrink factor —
  the cheap weight-distribution calibration pass used by
  ``quantize_for_inference``);
* dequantization is exact multiplication: ``w_hat = q * s_o``.

Execution — :func:`quantized_linear` never materializes the full
dequantized matrix.  It streams the int8 weight through a small fp
scratch block (sized to stay cache-resident, see
:data:`SCRATCH_TARGET_BYTES`) and runs one BLAS GEMM per block, scaling
the accumulated outputs per channel afterwards.  A batch-8 decode GEMM
is memory-bound on weight traffic, so reading int8 instead of fp32
is what the speedup in ``BENCH_quant.json`` comes from — the same
bandwidth argument the paper makes for its reduced-precision buffers.
Scratch blocks are pooled per ``(in_features, dtype)`` and thread, like
the grouped butterfly plans'; butterfly-stage quantization reuses the
existing plan cache by dequantizing the (tiny) stage coefficients and
dispatching to :func:`repro.kernels.butterfly_apply`.

Stored formats — a weight is ``(codes, scales)`` and the two formats
differ by that one optional array: int8 codes carry per-channel fp32
``scales``; ``scales is None`` *is* the fp16 format (half-precision
storage, the paper's 16-bit buffers, nothing to rescale).  One streaming
GEMM and one ladder apply serve both.

The activation dtype follows the inputs (float32/float64 under the
:mod:`repro.kernels.dtype` policy; fp16 activations compute one tier
wider and are cast back); only weights are stored narrow.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import span
from .autotune import get_tuned, shape_class
from .backend import resolve_backend
from .dtype import compute_dtype
from .pool import ScratchPool

#: Quantized code range: symmetric int8 without -128, so negation is
#: closed and the hardware's sign-magnitude multipliers need no special
#: case (the convention of the int8 accelerator literature).
QMAX = 127

#: Dequant scratch sizing: one block of rows is dequantized at a time
#: into a buffer of at most this many bytes, so the fp copy BLAS reads
#: stays cache-resident while the int8 stream is the only DRAM traffic.
SCRATCH_TARGET_BYTES = 96 * 1024

#: Per-channel shrink factors tried by the MSE calibration grid search.
CALIBRATION_GRID = (1.0, 0.95, 0.9, 0.85, 0.8)

#: Dequant scratch blocks, one per ``in_features`` and dtype, pooled *per
#: thread*: the threaded backend runs column-span shards on pool workers,
#: and a process-global pool would hand two workers the same buffer.
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


def dequantize(
    q: np.ndarray, scales: Optional[np.ndarray], dtype=None
) -> np.ndarray:
    """The stored weight in ``dtype``: exactly ``q * scales`` per channel
    row for int8 codes, a plain widening for fp16 (``scales is None``)."""
    dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float32)
    w = q.astype(dtype)
    return w if scales is None else w * scales.astype(dtype)[:, None]


# ----------------------------------------------------------------------
# Dequant-on-the-fly GEMM
# ----------------------------------------------------------------------
def _block_rows(in_features: int, itemsize: int) -> int:
    """Rows per dequant block so the scratch stays within the target."""
    rows = SCRATCH_TARGET_BYTES // max(1, in_features * itemsize)
    return int(np.clip(rows, 8, 256))


def _resolve_block_rows(
    block_rows: Optional[int], in_features: int, dtype: np.dtype
) -> int:
    """Block size: explicit arg > autotuned (machine cache / committed
    defaults, see :mod:`repro.kernels.autotune`) > on-the-fly heuristic.

    The block size is execution-only — output column blocks are
    independent GEMMs over the full contraction axis, so every block
    size computes the same function.  Bytes can still differ between
    block sizes in the last ulp: BLAS picks its micro-kernel by column
    count.  For one block size they are reproducible, which is what the
    serial/threaded parity rests on (both run the same blocks).
    """
    if block_rows is not None:
        return max(1, int(block_rows))
    default = _block_rows(in_features, dtype.itemsize)
    tuned = get_tuned(
        "quantized_linear", shape_class(in_features), dtype,
        {"block_rows": default},
    )
    return max(1, int(tuned["block_rows"]))


def quantized_linear(
    x: np.ndarray,
    q_weight: np.ndarray,
    scales: Optional[np.ndarray],
    bias: Optional[np.ndarray] = None,
    *,
    block_rows: Optional[int] = None,
    backend=None,
) -> np.ndarray:
    """``x @ dequant(q_weight)^T + bias`` without materializing the weight.

    ``x`` is ``(..., in)``; ``q_weight`` is the ``(out, in)`` stored
    weight — int8 codes with per-output-channel ``scales``, or fp16 with
    ``scales=None``.  The weight is streamed through a cache-resident
    scratch block (one ``stored -> fp`` copy and one GEMM per block);
    the per-channel scale is applied once to the ``(..., out)``
    accumulator, which is tiny next to the weight.

    The arithmetic runs in :func:`compute_dtype(x.dtype)
    <repro.kernels.dtype.compute_dtype>` for both formats: int8 codes
    have no float tier of their own, and fp16 storage promotes to fp32
    (NumPy has no BLAS half kernels), which never exceeds the
    activation's compute tier — the software analogue of wide
    accumulators over the paper's 16-bit buffers.  The result is cast
    back to ``x``'s dtype, so an fp16 activation stream stays fp16 end
    to end and float32/float64 activations are never copied.

    ``block_rows`` overrides the autotuned block size; ``backend``
    selects the execution backend (blocks are independent output-column
    GEMMs, so the threaded backend shards them bit-identically).
    """
    x = np.asarray(x)
    if q_weight.dtype != (np.float16 if scales is None else np.int8):
        raise TypeError(
            "q_weight must be int8 codes with scales or float16 without, "
            f"got {q_weight.dtype} with scales={'None' if scales is None else 'given'}"
        )
    out_features, in_features = q_weight.shape
    if x.shape[-1] != in_features:
        raise ValueError(
            f"input dim {x.shape[-1]} does not match weight in dim {in_features}"
        )
    backend = resolve_backend(backend)
    cdt = compute_dtype(x.dtype)
    lead = x.shape[:-1]
    x2 = np.asarray(x.reshape(-1, in_features), dtype=cdt)
    out = np.empty((x2.shape[0], out_features), dtype=cdt)
    rows = _resolve_block_rows(block_rows, in_features, cdt)

    taken = {}  # thread -> its scratch block: one take per thread and call

    def run_block(o0: int) -> None:
        o1 = min(o0 + rows, out_features)
        thread = threading.get_ident()
        buf = taken.get(thread)
        if buf is None:
            buf = taken[thread] = _SCRATCH.take(
                in_features, (min(rows, out_features), in_features), cdt)
        block = buf[: o1 - o0]
        np.copyto(block, q_weight[o0:o1])  # stored -> fp (unscaled)
        np.matmul(x2, block.T, out=out[:, o0:o1])

    with span("kernels.quantized_linear", rows=x2.shape[0], out=out_features):
        backend.map(run_block, range(0, out_features, rows))
        if scales is not None:
            out *= scales
        if bias is not None:
            out += bias
    return out.reshape(*lead, out_features).astype(x.dtype, copy=False)


def quantized_linear_reference(
    x: np.ndarray,
    q_weight: np.ndarray,
    scales: Optional[np.ndarray],
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unblocked oracle for :func:`quantized_linear` (parity tests)."""
    x = np.asarray(x)
    cdt = compute_dtype(x.dtype)
    out = np.matmul(x.astype(cdt), q_weight.T.astype(cdt))
    if scales is not None:
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
    stage_scales: Optional[Sequence[np.ndarray]],
    dtype=None,
) -> List[np.ndarray]:
    """Exact fp stage tensors from stored stages (shared with the hardware
    model); ``stage_scales is None`` is the fp16 format, as for weights."""
    if stage_scales is None:
        stage_scales = [None] * len(q_stages)
    return [
        dequantize(q, s, dtype=dtype) for q, s in zip(q_stages, stage_scales)
    ]


def quantized_butterfly_apply(
    x: np.ndarray,
    q_stages: Sequence[np.ndarray],
    stage_scales: Optional[Sequence[np.ndarray]],
    halves: Sequence[int],
) -> np.ndarray:
    """Apply a stored (int8 or fp16) butterfly ladder to the last axis of ``x``.

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
def quantization_rmse(
    w: np.ndarray, q: np.ndarray, scales: Optional[np.ndarray]
) -> float:
    """Root-mean-square round-trip error of a stored weight."""
    w_hat = dequantize(q, scales, dtype=np.float64)
    return float(np.sqrt(np.square(w_hat - np.asarray(w, dtype=np.float64)).mean()))

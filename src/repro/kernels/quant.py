"""Stored-weight kernels (int8 codes): the software decode datapath.

The paper's accelerator executes butterfly and attention workloads in
reduced precision; :mod:`repro.hardware.quantize` models what that does
to accuracy.  This module is the *runnable* counterpart for the operands
whose traffic narrow storage actually cuts: dense ``(out, in)`` weights.
A butterfly ladder's ``O(n log n)`` stage coefficients are already 2-22x
smaller than the dense weight it replaces, and stays in fp (its
:class:`~repro.kernels.FrozenLadder`).

Scheme — per-channel symmetric int8, scales in fp32:

* each output channel ``o`` of a ``(out, in)`` weight gets one scale
  ``s_o = absmax_o / 127``; codes are ``q = clip(rint(w / s_o), -127,
  127)`` (round half to even, the IEEE default);
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
plans'.

Activations are float32 or float64 and the arithmetic runs in their own
dtype (the software analogue of wide accumulators over narrow buffers);
only weights are stored narrow.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..telemetry import span
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

#: The dequant scratch, pooled *per thread*: two threads forwarding one
#: stored model would otherwise be handed the same buffer.
_SCRATCH = ScratchPool("kernels_quant_scratch")

_ACTIVATION_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def quantize_per_channel(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize ``(channels, elements)`` weights to ``(int8 codes, fp32 scales)``.

    Each channel's scale is ``absmax / 127`` (an all-zero channel gets
    1.0, so its codes, all zero, still dequantize exactly).  Codes use
    round-half-to-even and saturate at ±127.  Both passes run per block of
    :func:`block_rows` channels, so the only full-size array made is the
    codes.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected 2-D (channels, elements) weights, got {w.shape}")
    step = block_rows(w.shape[1], w.itemsize)
    blocks = [slice(start, start + step) for start in range(0, len(w), step)]
    absmax = np.empty(len(w), w.dtype)
    for rows in blocks:
        np.maximum.reduce(np.abs(w[rows]), axis=-1, out=absmax[rows])
    scales = np.where(absmax > 0.0, absmax / QMAX, 1.0).astype(np.float32)
    q = np.empty(w.shape, np.int8)
    for rows in blocks:
        block = w[rows] / scales[rows, None]
        q[rows] = np.clip(np.rint(block, out=block), -QMAX, QMAX, out=block)
    return q, scales


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


def _check_activations(x: np.ndarray) -> None:
    if x.dtype not in _ACTIVATION_DTYPES:
        raise ValueError(
            f"activations must be float32 or float64, got {x.dtype}")


class PackedWeight:
    """A stored ``(out, in)`` weight laid out the way the GEMM reads it.

    One C-contiguous ``(in, rows)`` code block per block of output
    channels (``blocks`` holds ``(o0, o1, codes[o0:o1].T)``; the last one
    may be narrower), so a block is dequantized by one straight copy and
    multiplied as ``x @ block`` — no transposed operand.  This is the
    only copy of the codes a layer holds: ``shape``, ``dtype`` and
    ``nbytes`` are those of the ``(out, in)`` codes it was packed from.
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


def pack_weight(q_weight, scales, bias=None, *, itemsize: int = 4) -> PackedWeight:
    """Validate a stored weight once (:func:`check_stored`) and lay its
    codes out in :func:`block_rows` ``(in_features, itemsize)`` blocks;
    ``itemsize`` is that of the dtype the layer will compute in.  An
    already packed weight is validated and returned as it is."""
    check_stored(q_weight, scales, bias)
    if isinstance(q_weight, PackedWeight):
        return q_weight
    out_features, in_features = q_weight.shape
    rows = block_rows(in_features, itemsize)
    data = np.empty(q_weight.size, dtype=q_weight.dtype)  # blocks back to back
    blocks = []
    for o0 in range(0, out_features, rows):
        o1 = min(o0 + rows, out_features)
        block = data[o0 * in_features:o1 * in_features].reshape(in_features, o1 - o0)
        np.copyto(block, q_weight[o0:o1].T)
        blocks.append((o0, o1, block))
    return PackedWeight(q_weight.shape, q_weight.dtype, blocks)


def quantized_linear(
    x: np.ndarray,
    q_weight: PackedWeight,
    scales: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``x @ dequant(q_weight)^T + bias`` without materializing the weight.

    ``x`` is ``(..., in)`` float32 or float64, and the result is in its
    dtype; ``q_weight`` is the :class:`PackedWeight` of ``(out, in)``
    int8 codes with per-output-channel ``scales`` (what a layer holds:
    validated when it was packed, not here).  Each block is one ``stored
    -> fp`` copy into a cache-resident scratch and one GEMM; the
    per-channel scale is applied once to the ``(..., out)`` accumulator,
    which is tiny next to the weight.
    """
    x = np.asarray(x)
    _check_activations(x)
    out_features, in_features = q_weight.shape
    if x.shape[-1] != in_features:
        raise ValueError(
            f"input dim {x.shape[-1]} does not match weight in dim {in_features}"
        )
    lead = x.shape[:-1]
    x2 = x.reshape(-1, in_features)
    out = np.empty((x2.shape[0], out_features), dtype=x.dtype)
    buf = _SCRATCH.take("block", (in_features * q_weight.rows,), x.dtype)
    with span("kernels.quantized_linear", rows=x2.shape[0], out=out_features):
        for o0, o1, block in q_weight.blocks:
            scratch = buf[:block.size].reshape(block.shape)
            np.copyto(scratch, block)  # stored -> fp (unscaled)
            np.matmul(x2, scratch, out=out[:, o0:o1])
        out *= scales
        if bias is not None:
            out += bias
    return out.reshape(*lead, out_features)


def quantized_linear_reference(
    x: np.ndarray,
    q_weight: np.ndarray,
    scales: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unblocked oracle for :func:`quantized_linear` over the plain
    ``(out, in)`` codes (parity tests)."""
    x = np.asarray(x)
    _check_activations(x)
    out = np.matmul(x, q_weight.T.astype(x.dtype))
    out *= scales
    if bias is not None:
        out += bias
    return out

"""Fused attention kernel: query-tiled forward, logsumexp-recompute backward.

One kernel implements scaled-dot-product attention for all three
consumers of the reproduction — training (:class:`repro.nn.attention.
MultiHeadAttention`), serving decode (:mod:`repro.serving`, via the
``seq == 1`` fast path) and the hardware attention engine's parity mode
(:class:`repro.hardware.functional.attention_engine.AttentionEngine`
with ``verify=True``).

Design
------
* **Query tiles, exact softmax, one pass**: the forward walks tiles of
  about :data:`TILE_SCORES` scores (a block of queries against every key
  they can see): one QK^T GEMM into pooled scratch, biases, exp, one PV
  GEMM.  The scale sits on the queries (``D`` columns, not ``Lk``), a
  ones column on ``V`` makes the PV GEMM return each row's denominator,
  and no row max is subtracted: the PV block checks each row
  (:func:`_unshifted_is_exact`), and only a tile with a failing row is
  recomputed, shifted by the row max on its failing rows.  A query's
  whole key row is in its tile: no running max, nothing to rescale, and
  peak score memory is one tile, not ``O(B*H*Lq*Lk)``.  Every temporary
  is the per-thread pool's (:data:`repro.kernels.pool.SCRATCH`).
* **exp2 in float32**: the exponential is :func:`repro.kernels.dtype.
  softmax_exp`'s pair — float32 scales the queries by ``scale * log2(e)``
  and runs ``np.exp2`` (half of ``np.exp``'s cost per score), float64
  keeps ``np.exp``.  ``2^(s log2 e)`` over- and underflows at the same
  natural scores as ``e^s``, so the check and its floor keep their
  meaning; the row shift is taken in the scaled units and the
  logsumexp is stored in natural log.
* **Analytic backward on the same tiles**: the forward stores only
  ``(q, k, v, out, logsumexp)``; :func:`attention_vjp` recomputes each
  query tile's probabilities exactly: ``[q * scale | -lse] @ [K^T ; 1]``
  is ``s - lse`` (float32 folds ``log2 e`` into ``[K^T ; 1]``, so dK's
  operand stays ``q * scale``) and ``[dO | -delta] @ [V^T ; 1]`` is
  ``dP - delta`` (``delta = rowsum(dO * O)``), so ``dS = P * (dP -
  delta)`` costs two passes over a tile (exp, the product with P) and dQ
  is written once.
* **Cached bias buffers**: the causal additive bias is cached keyed by
  ``(seq, total, dtype)`` (:func:`causal_bias`); the fill value is the
  dtype-aware :func:`repro.kernels.dtype.mask_fill_value`, so masked
  probabilities underflow to exactly 0 in both float64 and float32.
* **Decode fast path**: :func:`attention_decode` handles the KV-cache
  single-token step with no transposes, no reshapes and no bias arrays.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..telemetry import span
from . import backend
from .dtype import mask_fill_value, softmax_exp
from .pool import SCRATCH, check_out, fresh

#: Step along a causal mask's diagonal: most queries in a causal tile,
#: forward and backward (a tile computes the whole rectangle up to its last
#: query's diagonal, for as many heads as fit :data:`TILE_SCORES`).  Causal
#: fp32 ms at 64 / 128 / 256, forward | forward + VJP, median of 15
#: interleaved: ``(4,4,256,64)`` 4.0 / 4.4 / 5.1 | 10.0 / 11.2 / 13.1,
#: ``(1,4,1024,32)`` 6.9 / 7.3 / 7.2 | 17.9 / 18.4 / 18.3,
#: ``(1,8,512,64)`` 6.2 / 6.6 / 7.8 | 18.1 / 19.6 / 20.6.
DEFAULT_BLOCK = 64

#: Score elements in one forward tile (see :func:`_tile_shape`): 512 KB of
#: float32, inside a 2 MB L2 beside the K/V rows it streams.  Forward ms,
#: 1 BLAS thread, 64K / 128K / 256K on the one-pass tile, medians of 15
#: interleaved, two runs: ``(1,4,1024,32)`` fp32 13.4/11.5/11.5, 13.5/12.3/
#: 11.9, fp64 21.5/18.9/21.0, 20.6/20.9/20.4; ``(1,8,512,64)`` fp32 7.6/6.9/
#: 6.9, 10.2/9.7/9.2.  256K never wins by more than the runs disagree.
TILE_SCORES = 1 << 17

# Cached additive causal biases keyed by (seq, total, dtype str).  Entries
# are (seq, total) arrays of {0, mask_fill_value}; the cache is tiny (one
# entry per distinct geometry/dtype) but saves an O(L^2) rebuild per call.
# Guarded by a lock: the pop/reinsert recency bookkeeping is not atomic,
# and two threads forwarding models (a ``ServerThread`` beside its
# caller) may resolve biases concurrently.
_BIAS_CACHE: Dict[Tuple[int, int, str], np.ndarray] = {}
_BIAS_CACHE_MAX = 64
_BIAS_CACHE_LOCK = threading.Lock()


def causal_bias(seq: int, total: int, dtype) -> np.ndarray:
    """Additive causal bias for ``seq`` queries over ``total`` keys.

    Query ``i`` sits at absolute position ``total - seq + i`` (the usual
    convention for a suffix of queries over a full key prefix; for
    self-attention ``total == seq`` and this is the standard lower-
    triangular mask).  Entries are 0 where the key is visible and
    :func:`mask_fill_value` where it is not.  The returned array is a
    shared cache entry — treat it as read-only.
    """
    dt = np.dtype(dtype)
    key = (seq, total, dt.str)
    with _BIAS_CACHE_LOCK:
        bias = _BIAS_CACHE.pop(key, None)
        if bias is not None:
            _BIAS_CACHE[key] = bias  # re-insert: dict order is recency order
            return bias
    # Build outside the lock — O(L^2) work should not serialize readers
    # of other keys.  Two threads may race to build the same key; both
    # arrays are identical and the second insert simply wins.
    offset = total - seq
    visible = np.arange(total)[None, :] <= (offset + np.arange(seq))[:, None]
    bias = np.where(visible, dt.type(0), dt.type(mask_fill_value(dt)))
    with _BIAS_CACHE_LOCK:
        if len(_BIAS_CACHE) >= _BIAS_CACHE_MAX and key not in _BIAS_CACHE:
            # Evict the least-recently-used entry — a full clear would
            # also drop the hot training geometry and force an O(L^2)
            # rebuild on the next step.
            _BIAS_CACHE.pop(next(iter(_BIAS_CACHE)))
        _BIAS_CACHE[key] = bias
    return bias


def padding_bias(key_mask: np.ndarray, dtype) -> np.ndarray:
    """Per-row additive key-padding bias ``(B, total)`` from a boolean mask.

    ``key_mask`` is True at valid key positions (the :mod:`repro.nn`
    convention).  Value-dependent, so not cached — but it is ``O(B*L)``,
    never ``O(B*H*L*L)``; broadcasting happens inside the tile loop.
    """
    dt = np.dtype(dtype)
    return np.where(np.asarray(key_mask, dtype=bool), dt.type(0),
                    dt.type(mask_fill_value(dt)))


class AttentionContext(NamedTuple):
    """Forward residuals needed by :func:`attention_vjp`."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    out: np.ndarray
    lse: np.ndarray  # (B, H, Lq) logsumexp of masked scaled scores
    scale: float
    block: int
    bias2d: Optional[np.ndarray]  # (Lq, Lk) cached causal bias
    bias3d: Optional[np.ndarray]  # (B, Lq, Lk) ragged-start causal bias
    kbias: Optional[np.ndarray]  # (B, Lk) key padding bias
    take: Callable  # where the VJP's outputs come from


def _resolve_bias(
    causal: bool,
    q_start: Optional[np.ndarray],
    lq: int,
    lk: int,
    dtype,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Pick the cached 2D causal bias or build the per-row 3D one.

    ``q_start[b]`` is the absolute position of row ``b``'s first query
    (KV-cache continuation).  A uniform ``q_start`` equal to
    ``lk - lq`` is exactly the cached suffix convention, which covers
    fresh prefill (all zeros) and same-length batches; only genuinely
    ragged batches pay the per-call 3D build.
    """
    if not causal:
        return None, None
    if q_start is not None:
        starts = np.asarray(q_start, dtype=np.int64)
        if starts.size and not (starts == starts[0]).all():
            dt = np.dtype(dtype)
            visible = (
                np.arange(lk)[None, None, :]
                <= (starts[:, None] + np.arange(lq)[None, :])[:, :, None]
            )
            return None, np.where(visible, dt.type(0),
                                  dt.type(mask_fill_value(dt)))
        if starts.size and int(starts[0]) != lk - lq:
            raise ValueError(
                f"uniform q_start={int(starts[0])} inconsistent with "
                f"{lk} keys for {lq} queries (expected {lk - lq})"
            )
    return causal_bias(lq, lk, dtype), None


def _tile_shape(h: int, lq: int, lk: int, cap: int) -> Tuple[int, int, int]:
    """``(batch rows, heads, queries)`` of a tile: ``cap`` queries at most,
    of as many heads as fit :data:`TILE_SCORES`, until a head's scores fit;
    a run of whole heads once they do, of whole batch rows once a row's do
    — a short prompt, or a batch of them, is one tile and one batched
    GEMM.  A function of the geometry, never of the batch size.  No
    queries tile as one query: the loops over them are then empty."""
    lq, cap = max(lq, 1), max(cap, 1)
    rows = max(1, TILE_SCORES // lk)  # (head, query) pairs in a tile
    queries = min(lq, rows, cap)
    if queries < lq:
        return 1, max(1, min(h, rows // queries)), queries
    heads = min(h, rows // lq)
    return (rows // (h * lq) if heads == h else 1), heads, lq


def _unshifted_is_exact(pv: np.ndarray, floor: float) -> bool:
    """Whether every row of an unshifted tile's PV block ``[P V | l]``
    (``l = sum_j exp(s_j)`` over ``n`` keys) is its softmax to rounding.

    An overflowing ``exp`` makes its row non-finite, and so the block's
    sum (which may also overflow alone: a spurious, merely slower fail).
    An ``exp(s_j)`` below ``tiny`` is subnormal or 0 and loses under
    ``tiny``, so a row loses under ``n * tiny`` of its mass (and of
    ``l * |v|``): with ``floor = n * tiny / eps``, ``l >= floor`` bounds
    that by one ``eps`` of ``l``.  Fully masked (``l == 0``) and NaN rows
    fail.  Two reductions over the ``(rows, D + 1)`` block.
    """
    return bool(np.isfinite(np.add.reduce(pv, axis=None))
                and np.minimum.reduce(pv[..., -1], axis=None) >= floor)


def attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    causal: bool = False,
    key_mask: Optional[np.ndarray] = None,
    q_start: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    block: Optional[int] = None,
    need_ctx: bool = True,
    out: Optional[np.ndarray] = None,
    take: Callable = fresh,
) -> Tuple[np.ndarray, Optional[AttentionContext]]:
    """Fused ``softmax(Q K^T * scale + bias) V``, one query tile at a time.

    ``q`` is ``(B, H, Lq, D)``; ``k``/``v`` are ``(B, H, Lk, D)``.
    ``key_mask`` is boolean ``(B, Lk)`` (True = valid key).  ``q_start``
    gives per-row absolute query offsets for causal KV-cache
    continuation (see :func:`_resolve_bias`).  Returns ``(out, ctx)``;
    ``ctx`` is None unless ``need_ctx`` and feeds :func:`attention_vjp`.

    ``block`` defaults to :data:`DEFAULT_BLOCK`.  No queries (``Lq ==
    0``) give an empty ``(B, H, 0, D)`` result; queries over no keys are
    refused.

    ``out`` is a ``(B, H, Lq, D)`` array of ``q``'s dtype aliasing no
    operand, C-contiguous or the ``(0, 2, 1, 3)`` transpose of a
    C-contiguous ``(B, Lq, H, D)`` array (heads merged, as an output
    projection reads them); it receives the bytes the allocating call
    returns (a ``take`` buffer without it).  A context keeps the operands
    and ``out`` by reference, and its logsumexp in a ``take`` buffer.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if q.ndim != 4 or k.ndim != 4 or v.ndim != 4:
        raise ValueError(
            f"expected (B, H, L, D) operands, got {q.shape}/{k.shape}/{v.shape}"
        )
    if k.shape != v.shape or q.shape[:2] != k.shape[:2] or q.shape[3] != k.shape[3]:
        raise ValueError(
            f"incompatible shapes q={q.shape} k={k.shape} v={v.shape}"
        )
    b, h, lq, d = q.shape
    lk = k.shape[2]
    if lq and not lk:
        raise ValueError(f"{lq} queries over no keys: q={q.shape} k={k.shape}")
    scale = 1.0 / math.sqrt(d) if scale is None else float(scale)
    dtype = q.dtype
    if block is None:
        block = DEFAULT_BLOCK
    bias2d, bias3d = _resolve_bias(causal, q_start, lq, lk, dtype)
    if bias2d is not None and lq > lk:
        raise ValueError(f"causal attention of {lq} queries over {lk} keys")
    kbias = padding_bias(key_mask, dtype) if key_mask is not None else None
    if out is None:
        out = take("attention.out", (b, h, lq, d), dtype)
    elif isinstance(out, np.ndarray) and out.ndim == 4 and not out.flags.c_contiguous:
        # The heads-merged layout: a (B, Lq, H, D) array, transposed.
        check_out(out.transpose(0, 2, 1, 3), (b, lq, h, d), dtype, q, k, v)
    else:
        check_out(out, (b, h, lq, d), dtype, q, k, v)
    exp, log2e = softmax_exp(dtype)

    shift, lsum = take("attention.lse", (2, b, h, lq), dtype)
    shift[...] = 0  # a row's shift stays 0 unless its tile fails the check
    tiny_per_eps = float(np.finfo(dtype).tiny / np.finfo(dtype).eps)
    nb, nh, nq = _tile_shape(h, lq, lk, lq if bias2d is None else block)
    kt = k.swapaxes(-1, -2)  # (B, H, D, Lk) view
    # Uniform causal masking is the suffix convention, query i at absolute
    # position offset + i: a tile ending at query i1 sees no key from
    # offset + i1 on, and needs the bias only from its first diagonal.
    offset = lk - lq

    with span("kernels.attention_forward", lq=lq, lk=lk, block=block), \
            np.errstate(over="ignore", invalid="ignore"):
        # One pass over a score tile (exp) between its two GEMMs, unless
        # the PV block's check (which sees any overflow) sends it round
        # again, shifted.
        rows = min(nb, b)
        scores = SCRATCH.take("attention.tile", (rows * nh * nq * lk,), dtype)
        # The scaled queries are spent when the PV product is written:
        # one buffer holds first the one, then the other.
        summed = SCRATCH.take("attention.pv", (rows * nh * nq * (d + 1),), dtype)
        ones = SCRATCH.take("attention.v", (rows, nh, lk, d + 1), dtype)
        for b0, h0 in itertools.product(range(0, b, nb), range(0, h, nh)):
            b1 = min(b0 + nb, b)
            h1 = min(h0 + nh, h)
            v1 = ones[:b1 - b0, :h1 - h0]
            v1[..., :d] = v[b0:b1, h0:h1]
            v1[..., d] = 1.0
            keys = kt[b0:b1, h0:h1]
            if nq < lq:
                # Every tile of the head reads these keys: lay K^T out
                # once, rows contiguous, for the QK GEMMs to stream.
                keys = SCRATCH.take("attention.k", keys.shape, dtype)
                np.copyto(keys, kt[b0:b1, h0:h1])
            for i0 in range(0, lq, nq):
                i1 = min(i0 + nq, lq)
                j1 = offset + i1 if bias2d is not None else lk
                tile = np.s_[b0:b1, h0:h1, i0:i1]
                shape = (b1 - b0, h1 - h0, i1 - i0)
                size = math.prod(shape)
                s = scores[:size * j1].reshape(*shape, j1)
                pv = summed[:size * (d + 1)].reshape(*shape, d + 1)
                floor = j1 * tiny_per_eps
                for shifted in (False, True):
                    qs = np.multiply(q[tile], scale * log2e,
                                     out=summed[:size * d].reshape(*shape, d))
                    np.matmul(qs, keys[..., :j1], out=s)
                    if bias2d is not None:
                        j0 = offset + i0 + 1
                        s[..., j0:] += bias2d[i0:i1, j0:j1]
                    if bias3d is not None:
                        s += bias3d[b0:b1, None, i0:i1]
                    if kbias is not None:
                        s += kbias[b0:b1, None, None, :j1]
                    if shifted:  # 0 on passing rows: their bytes are kept
                        np.maximum.reduce(s, axis=-1, out=shift[tile])
                        np.copyto(shift[tile], 0, where=exact)
                        s -= shift[tile][..., None]
                    exp(s, out=s)
                    np.matmul(s, v1[:, :, :j1], out=pv)
                    if shifted or _unshifted_is_exact(pv, floor):
                        break
                    # The same rule row by row: l, or NaN on a non-finite row.
                    rowwise = np.add.reduce(pv, axis=-1, out=shift[tile])
                    rowwise *= 0
                    rowwise += pv[..., d]
                    exact = SCRATCH.take("attention.exact", shape, bool)
                    np.greater_equal(rowwise, floor, out=exact)
                np.divide(pv[..., :d], pv[..., d:], out=out[tile])
                if need_ctx:
                    lsum[tile] = pv[..., d]
    if not need_ctx:
        return out, None
    lse = np.log(lsum, out=lsum)
    lse += np.multiply(shift, 1.0 / log2e, out=shift)  # natural log
    return out, AttentionContext(q, k, v, out, lse, scale, block,
                                 bias2d, bias3d, kbias, take)


def attention_vjp(
    grad_out: np.ndarray, ctx: AttentionContext
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(dq, dk, dv)`` of :func:`attention_forward`, on the
    forward's query tiles (see the module docstring)."""
    q, k, v, out, lse, scale, block, bias2d, bias3d, kbias, take = ctx
    g = np.asarray(grad_out)
    b, h, lq, d = q.shape
    lk = k.shape[2]
    dtype = q.dtype
    gq, gk, gv = (take(f"attention.g{name}", a.shape, dtype)
                  for name, a in zip("qkv", (q, k, v)))
    exp, log2e = softmax_exp(dtype)
    nb, nh, nq = _tile_shape(h, lq, lk, lq if bias2d is None else block)
    with span("kernels.attention_vjp", lq=lq, lk=lk, block=block):
        # The augmented operands (module docstring), once per run of heads.
        rows = min(nb, b)
        qa, ga = SCRATCH.take("attention.pv", (2, rows, nh, lq, d + 1), dtype)
        kv = SCRATCH.take("attention.k", (2, rows, nh, d + 1, lk), dtype)
        delta = SCRATCH.take("attention.delta", (rows * nh * lq,), dtype)
        tiles = SCRATCH.take("attention.tile", (2 * rows * nh * nq * lk,), dtype)
        part = SCRATCH.take("attention.dkv", (rows * nh * lk * d,), dtype)
        for b0, h0 in itertools.product(range(0, b, nb), range(0, h, nh)):
            b1, h1 = min(b0 + nb, b), min(h0 + nh, h)
            run = np.s_[b0:b1, h0:h1]
            n = (b1 - b0, h1 - h0)
            qa1, ga1 = qa[:n[0], :n[1]], ga[:n[0], :n[1]]
            kta, vta = kv[:, :n[0], :n[1]]
            np.multiply(q[run], scale, out=qa1[..., :d])
            np.negative(lse[run], out=qa1[..., d])
            ga1[..., :d] = g[run]
            # rowsum(dO * O) into a contiguous array, then the column.
            d1 = np.einsum("...i,...i->...", g[run], out[run],
                           out=delta[:math.prod(n) * lq].reshape(*n, lq))
            np.negative(d1, out=ga1[..., d])
            np.multiply(k[run].swapaxes(-1, -2), log2e, out=kta[..., :d, :])
            vta[..., :d, :] = v[run].swapaxes(-1, -2)
            kta[..., d, :] = log2e
            vta[..., d, :] = 1.0
            k1, gq1, gk1, gv1 = k[run], gq[run], gk[run], gv[run]
            gk1[...] = gv1[...] = 0
            for i0 in range(0, lq, nq):
                i1 = min(i0 + nq, lq)
                j1 = lk - lq + i1 if bias2d is not None else lk
                size = math.prod(n) * (i1 - i0) * j1
                p, ds = tiles[:2 * size].reshape(2, *n, i1 - i0, j1)
                np.matmul(qa1[..., i0:i1, :], kta[..., :j1], out=p)
                if bias2d is not None:  # whole rows: one contiguous pass
                    p += bias2d[i0:i1, :j1]
                if bias3d is not None:
                    p += bias3d[b0:b1, None, i0:i1, :j1]
                if kbias is not None:
                    p += kbias[b0:b1, None, None, :j1]
                exp(p, out=p)
                np.matmul(ga1[..., i0:i1, :], vta[..., :j1], out=ds)
                ds *= p
                np.matmul(ds, k1[..., :j1, :], out=gq1[..., i0:i1, :])
                # dV += P^T dO and dK += dS^T (scale q), over the tile's keys.
                for grad, a, rhs in ((gv1, p, ga1), (gk1, ds, qa1)):
                    dst = grad[..., :j1, :]
                    dst += np.matmul(a.swapaxes(-1, -2), rhs[..., i0:i1, :d],
                                     out=part[:dst.size].reshape(dst.shape))
            gq1 *= scale
    return gq, gk, gv


def attention_decode(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    lengths: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Single-token KV-cache attention step (the serving decode fast path).

    ``q`` is ``(B, H, D)`` — the one new token per row, already split
    into heads; ``k``/``v`` are the cached ``(B, H, T, D)`` prefixes
    *including* the new token's projections.  ``lengths[b]`` is the
    number of previously cached positions of row ``b`` (the new token
    sits at index ``lengths[b]``), so row ``b`` attends to key indices
    ``0 .. lengths[b]`` inclusive.  A key view every row sees whole
    (uniform lengths, sliced to them) skips masking entirely; otherwise
    the slots past each row's new token are overwritten with the dtype
    fill *before* the row max (no bias arrays are built) —
    padded cache slots can hold stale keys from earlier, longer contexts
    that would otherwise skew the softmax max and denominator.  (Cache
    buffers are zeros-born and fully overwritten on merge/compaction, so
    stale slots are always finite — see :class:`repro.serving.kv_cache.
    DecoderKVCache`; NaN-poisoned values there would still propagate
    through the zero-weighted ``p @ v`` product, exactly as in the seed
    composite path.)  No transposes or reshapes are materialized.
    Inference only — no autograd context is produced.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if q.ndim != 3:
        raise ValueError(f"decode expects q of shape (B, H, D), got {q.shape}")
    t = k.shape[2]
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[-1])
    with span("kernels.attention_decode", batch=q.shape[0], t=t):
        # s[b, h, t] = k[b, h, t] . q[b, h]
        s = np.empty((*k.shape[:3], 1), dtype=np.promote_types(k.dtype, q.dtype))
        backend.matmul(k, q[..., None], s)
        s = s[..., 0]
        s *= scale
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
            # Only a view sliced exactly to every row's visible prefix
            # skips masking: a ragged batch, or a capacity-sized view, has
            # slots past some row's new token.
            if lengths.size and np.minimum.reduce(lengths) + 1 < t:
                invalid = np.arange(t)[None, :] > lengths[:, None]
                np.copyto(s, s.dtype.type(mask_fill_value(s.dtype)),
                          where=invalid[:, None, :])
        # The reductions are ndarray.max / .sum's own ufuncs, unwrapped.
        m = np.maximum.reduce(s, axis=-1, keepdims=True)
        s -= m
        p = np.exp(s, out=s)  # masked slots underflow to exactly 0
        denom = np.add.reduce(p, axis=-1)
        ctx = np.empty((*q.shape[:2], 1, v.shape[-1]),
                       dtype=np.promote_types(p.dtype, v.dtype))
        backend.matmul(p[:, :, None, :], v, ctx)
        ctx = ctx[:, :, 0, :]
        ctx /= denom[..., None]
    return ctx


def attention_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    causal: bool = False,
    key_mask: Optional[np.ndarray] = None,
    q_start: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
) -> np.ndarray:
    """One-shot composite attention — the parity oracle.

    Materializes the full score matrix and softmax (the seed
    computation, minus autograd), for the golden-parity tests and the
    hardware engine's ``verify=True`` mode.  Accepts ``(..., L, D)``
    operands with any leading dimensions; masking arguments require the
    4D ``(B, H, L, D)`` layout.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[-1])
    s = np.matmul(q, k.swapaxes(-1, -2)) * scale
    lq, lk = q.shape[-2], k.shape[-2]
    if causal:
        bias2d, bias3d = _resolve_bias(True, q_start, lq, lk, s.dtype)
        if bias3d is not None:
            s = s + bias3d[:, None]
        else:
            s = s + bias2d
    if key_mask is not None:
        s = s + padding_bias(key_mask, s.dtype)[:, None, None, :]
    s -= s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return np.matmul(e / e.sum(axis=-1, keepdims=True), v)


def expected_macs(lq: int, lk: int, d: int) -> Dict[str, int]:
    """Closed-form per-head operation counts of one attention execution.

    The contract shared by the software kernel and the hardware
    attention engine's ``verify=True`` op-count parity check: QK and SV
    each perform ``lq * lk * d`` multiply-accumulates and the softmax
    touches every one of the ``lq * lk`` scores, regardless of key
    blocking.
    """
    return {
        "qk_macs": lq * lk * d,
        "sv_macs": lq * lk * d,
        "softmax_elems": lq * lk,
    }

"""Fused training-step kernels: projection, residual-norm and loss nodes.

PRs 1 and 3 fused the inference-side hot paths (butterfly ladders,
query-tiled attention); this module gives the *training* loop the
same treatment.  Each kernel implements one logical operation of the
encoder/decoder training step as a single forward/VJP pair so the
autograd engine records **one** graph node where the composite path
recorded three to five:

* :func:`linear_act_forward` / :func:`linear_act_vjp` — dense
  ``act(x @ W^T + b)`` (identity / gelu) in one node.  The
  contiguous ``W^T`` is cached *on the parameter object* and
  invalidated by the optimizer's in-place update (via the parameter's
  version counter, see :meth:`repro.nn.module.Parameter.bump_version`)
  or by a ``.data`` rebind.
* :func:`residual_layer_norm_forward` / :func:`residual_layer_norm_vjp`
  — the ``norm(x + sub(x))`` pattern that closes every transformer
  sub-layer, fused so the residual sum is never recorded as a separate
  node (one full-activation temporary saved per sub-layer, twice per
  block).
* :func:`cross_entropy_logits_forward` / :func:`cross_entropy_logits_vjp`
  — mean cross-entropy straight from logits via a fused logsumexp.  The
  forward caches the softmax so the backward is a single ``O(B*C)``
  rescale; the composite chain materialized the full log-prob matrix
  just to gather ``B`` entries and scattered back through a fancy-index
  ``np.add.at``.
* :func:`embedding_grad` — sort/segment-sum backward for embedding
  lookups, replacing the ``np.add.at`` scatter that dominated the seed
  char-LM/LRA backward pass (ufunc.at runs one scalar inner loop per
  element; ``argsort`` + ``np.add.reduceat`` is vectorized end to end).

The composite ops remain available and authoritative: every kernel here
is parity-tested against them (``tests/kernels/test_fused_training.py``)
and the :func:`use_fused` toggle routes the ``repro.nn`` wrappers back
to the composite graph, which is both the benchmark baseline and the
oracle for the loss-curve parity tests.

A kernel that takes ``take`` (a :meth:`ScratchPool.take
<repro.kernels.pool.ScratchPool.take>`-shaped callable; :func:`fresh
<repro.kernels.pool.fresh>`, which allocates, by default) draws every
array that outlives the call from it: the result, what the context
saves and, through the context, what the VJP returns.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..telemetry import span
from . import backend
from .pool import SCRATCH, check_out, fresh

ACTIVATIONS = ("identity", "gelu")

_GELU_C = float(np.sqrt(2.0 / np.pi))

_FUSED_ENABLED = True


def fused_enabled() -> bool:
    """Whether the fused training fast path is active (default True)."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def use_fused(flag: bool = True) -> Iterator[bool]:
    """Scope the fused-path toggle (``use_fused(False)`` = composite ops).

    The composite path is the pre-fusion op-by-op graph — the parity
    oracle and the benchmark baseline.  The toggle is consulted when an
    op is *recorded*, so a graph built under one setting backpropagates
    consistently even if the setting changes before ``backward()``.
    """
    global _FUSED_ENABLED
    previous, _FUSED_ENABLED = _FUSED_ENABLED, bool(flag)
    try:
        yield _FUSED_ENABLED
    finally:
        _FUSED_ENABLED = previous


# ----------------------------------------------------------------------
# Parameter-attached caches
# ----------------------------------------------------------------------
def cached_transpose(weight) -> np.ndarray:
    """Contiguous ``W^T`` for a weight, cached on the parameter object.

    ``weight`` is either a raw ndarray (no caching possible) or an
    object exposing ``.data`` — in practice an
    :class:`repro.nn.module.Parameter`, whose ``version`` counter the
    optimizers bump after every in-place update.  The cache entry stores
    ``(version, data, W^T)`` and is invalidated when either the version
    changes (in-place update) or the ``.data`` array is rebound
    (``load_state_dict``, quantization).  Objects that cannot hold
    attributes (plain ``Tensor`` with ``__slots__``) silently fall back
    to recomputing the transpose.
    """
    if isinstance(weight, np.ndarray):
        return np.ascontiguousarray(weight.T)
    data = weight.data
    version = getattr(weight, "version", None)
    cache = getattr(weight, "_wt_cache", None)
    if cache is not None:
        cached_version, cached_data, wt = cache
        if cached_version == version and cached_data is data:
            return wt
    wt = np.ascontiguousarray(data.T)
    try:
        weight._wt_cache = (version, data, wt)
    except AttributeError:
        pass
    return wt


# ----------------------------------------------------------------------
# GELU
# ----------------------------------------------------------------------
#: Elements per block of :func:`gelu_forward`'s ``out=`` chain: 128 KB of
#: float32, so the nine passes run on a block that stays in L2 instead
#: of streaming the whole activation nine times.  In place on a fresh
#: ``(1024, 512)`` float32, ms, whole array / 8K / 16K / 32K / 64K / 128K /
#: 256K: 1.45 / 1.45 / 1.01 / 0.93 / 1.02 / 0.91 / 1.14.
GELU_BLOCK = 1 << 15


def _gelu_tanh(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``tanh(c (z + 0.044715 z^3))`` chained in place through ``u``.  The
    cube is spelled ``z*z*z`` because ``np.power``'s pow() loop is ~40x
    slower than two multiplies, and every scalar is a Python float, so
    the chain stays in ``z``'s dtype."""
    np.multiply(z, z, out=u)
    u *= z
    u *= 0.044715
    u += z
    u *= _GELU_C
    return np.tanh(u, out=u)


def gelu_forward(
    z: np.ndarray, need_ctx: bool = True, out: Optional[np.ndarray] = None,
    take: Callable = fresh,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Tanh-approximation GELU ``0.5 z (1 + tanh(c (z + 0.044715 z^3)))``.

    Returns ``(y, t)``: ``t`` is the tanh, which :func:`gelu_vjp` reuses,
    or None unless ``need_ctx``.  The chain runs in place through one
    ``take`` buffer (a second one for ``y`` when ``t`` must survive) and
    never writes into ``z``.

    ``out`` receives ``y`` instead — the same bytes.  Without a context
    (``z`` C-contiguous) the chain runs :data:`GELU_BLOCK` elements at a
    time through pooled scratch, and in place is defined: ``out`` may be
    ``z`` itself, each block of which is read until the block's last two
    passes write it; any other overlap is refused.
    """
    if out is None or need_ctx:
        t = _gelu_tanh(z, take("gelu.t", z.shape, z.dtype))
        if need_ctx:
            if out is None:
                out = take("gelu.y", z.shape, z.dtype)
            else:
                check_out(out, z.shape, z.dtype, z, t)
            y = np.add(t, 1.0, out=out)
            y *= z
        else:
            t += 1.0
            y = np.multiply(t, z, out=t)
        y *= 0.5
        return y, (t if need_ctx else None)
    if not z.flags.c_contiguous:
        raise ValueError("out= needs a C-contiguous pre-activation")
    if out is not z:
        check_out(out, z.shape, z.dtype, z)
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    chain = SCRATCH.take("gelu", (min(GELU_BLOCK, z.size),), z.dtype)
    for start in range(0, z.size, GELU_BLOCK):
        block = flat_z[start:start + GELU_BLOCK]
        t = _gelu_tanh(block, chain[:block.size])
        t += 1.0
        y = np.multiply(t, block, out=flat_out[start:start + GELU_BLOCK])
        y *= 0.5
    return out, None


def gelu_vjp(grad: np.ndarray, z: np.ndarray, t: np.ndarray,
             take: Callable = fresh) -> np.ndarray:
    """``grad * gelu'(z)`` from the pre-activation and the saved tanh.

    ``d/dz gelu(z) = 0.5 * (1 + t + z * (1 - t^2) * dinner)``, chained in
    place through the ``take`` buffer it returns, ``dinner``
    :data:`GELU_BLOCK` elements at a time through pooled scratch;
    ``grad``, ``z`` and ``t`` are only read.
    """
    dact = np.multiply(t, t, out=take("gelu.dact", t.shape, t.dtype))
    np.subtract(1.0, dact, out=dact)
    flat_z, flat_dact = z.reshape(-1), dact.reshape(-1)
    chain = SCRATCH.take("gelu", (min(GELU_BLOCK, z.size),), z.dtype)
    for start in range(0, z.size, GELU_BLOCK):
        block = flat_z[start:start + GELU_BLOCK]
        dinner = np.multiply(block, block, out=chain[:block.size])
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        flat_dact[start:start + GELU_BLOCK] *= dinner
    dact *= z
    dact += t
    dact += 1.0
    dact *= 0.5
    dact *= grad
    return dact


# ----------------------------------------------------------------------
# Fused linear + bias + activation
# ----------------------------------------------------------------------
class LinearActContext(NamedTuple):
    """Forward residuals for :func:`linear_act_vjp`."""

    x: np.ndarray
    w: np.ndarray
    has_bias: bool
    take: Callable  # where the VJP's outputs come from


def linear_act_forward(
    x: np.ndarray,
    weight,
    bias: Optional[np.ndarray] = None,
    activation: str = "identity",
    need_ctx: bool = True,
    out: Optional[np.ndarray] = None,
    take: Callable = fresh,
) -> Tuple[np.ndarray, Optional[LinearActContext]]:
    """Fused ``act(x @ W^T + b)``; ``x`` is ``(..., in)``, ``W`` ``(out, in)``.

    ``weight`` may be a parameter object (see :func:`cached_transpose`)
    or a raw array.  ``bias`` must be a 1-D ``(out,)`` vector when
    present.  Returns ``(y, ctx)``; ``ctx`` is None unless ``need_ctx``.
    ``"gelu"`` runs in place without a context: a recorded projection's
    GELU is :func:`gelu_forward` on its output.

    ``out`` is a C-contiguous array of the result's shape and dtype, not
    aliasing ``x``: the GEMM, the bias add and the activation all run in
    it, and it comes back as ``y`` with the bytes of the allocating call.
    """
    if activation not in ACTIVATIONS or (need_ctx and activation != "identity"):
        raise ValueError(
            f"activation must be one of {ACTIVATIONS} ('identity' with a "
            f"context), got {activation!r}"
        )
    w = weight if isinstance(weight, np.ndarray) else weight.data
    if bias is not None and (bias.ndim != 1 or bias.shape[0] != w.shape[0]):
        raise ValueError(
            f"bias must be 1-D of size {w.shape[0]}, got shape {bias.shape}"
        )
    wt = cached_transpose(weight)
    shape = x.shape[:-1] + (wt.shape[1],)
    dtype = np.promote_types(x.dtype, wt.dtype)
    if out is not None:
        check_out(out, shape, dtype, x)
    y = take("linear.y", shape, dtype) if out is None else out
    with span("kernels.linear_act", out=wt.shape[1], act=activation):
        backend.matmul(x, wt, y)
    if bias is not None:
        y += bias
    if activation == "gelu":  # in place in ``out``; else the allocating chain
        return gelu_forward(y, need_ctx=False, out=out)
    return y, LinearActContext(x, w, bias is not None, take) if need_ctx else None


def linear_act_vjp(grad: np.ndarray, ctx: LinearActContext) -> tuple:
    """Gradients of :func:`linear_act_forward`: ``(gx, gw[, gb])``."""
    x, w, has_bias, take = ctx
    gx = take("linear.gx", grad.shape[:-1] + (w.shape[1],), np.result_type(grad, w))
    with span("kernels.linear_act_vjp", out=w.shape[0]):
        backend.matmul(grad, w, gx)  # (..., out) @ (out, in)
        out_features = w.shape[0]
        g2 = grad.reshape(-1, out_features)
        x2 = x.reshape(-1, w.shape[1])
        gw = take("linear.gw", w.shape, w.dtype)
        backend.matmul(g2.T, x2, gw)
    if not has_bias:
        return gx, gw
    return gx, gw, g2.sum(axis=0)


# ----------------------------------------------------------------------
# Fused residual + LayerNorm
# ----------------------------------------------------------------------
class ResidualLNContext(NamedTuple):
    """Forward residuals for :func:`residual_layer_norm_vjp`."""

    normed: np.ndarray  # (x + sub - mu) * inv
    inv: np.ndarray  # 1 / sqrt(var + eps)
    gamma: np.ndarray
    take: Callable  # where the VJP's outputs come from


def residual_layer_norm_forward(
    x: np.ndarray,
    sub: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
    need_ctx: bool = True,
    out: Optional[np.ndarray] = None,
    take: Callable = fresh,
) -> Tuple[np.ndarray, Optional[ResidualLNContext]]:
    """Fused ``layer_norm(x + sub)`` over the last axis (affine).

    One graph node for the residual-sum-and-normalize that closes every
    transformer sub-layer; the ``x + sub`` temporary is normalized in
    place instead of being saved as a separate ``add`` node.

    ``out`` is a C-contiguous array of the result's shape and dtype
    aliasing neither operand, and comes back with the bytes of the
    allocating call; without a context the sum is formed and normalized
    in it (with one, the normalized sum is a ``take`` buffer).  The
    squares go through pooled scratch.  The means are
    ``np.mean``'s arithmetic, unwrapped (float16, which it would
    accumulate in float32, is refused).
    """
    if x.shape != sub.shape:
        raise ValueError(f"residual shapes differ: {x.shape} vs {sub.shape}")
    dtype = np.promote_types(x.dtype, sub.dtype)
    if out is not None:
        check_out(out, x.shape, dtype, x, sub)
    h = np.add(x, sub, out=(take("rln.normed", x.shape, dtype)
                            if out is None or need_ctx else out))
    if h.dtype == np.float16:
        raise TypeError("layer norm of a float16 sum: cast it to float32")
    count = np.intp(h.shape[-1])
    mu = np.add.reduce(h, axis=-1, keepdims=True)
    h -= np.true_divide(mu, count, out=mu, casting="unsafe")
    squares = SCRATCH.take("layer_norm", h.shape, h.dtype)
    var = np.add.reduce(np.square(h, out=squares), axis=-1, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    h *= inv  # h is now the normalized activation
    if not need_ctx:
        h *= gamma
        h += beta
        return h, None
    if out is None:
        out = take("rln.y", h.shape, np.promote_types(
            h.dtype, np.promote_types(gamma.dtype, beta.dtype)))
    y = np.multiply(h, gamma, out=out)
    y += beta
    return y, ResidualLNContext(h, inv, gamma, take)


def residual_layer_norm_vjp(
    grad: np.ndarray, ctx: ResidualLNContext
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(dx, dsub, dgamma, dbeta)``; ``dx is dsub`` (shared).

    The engine's accumulation never writes through un-owned buffers, so
    returning one shared array for both residual branches is safe and
    halves the backward's allocation.
    """
    normed, inv, gamma, take = ctx
    n = normed.shape[-1]
    g2 = grad.reshape(-1, n)
    dgamma = np.einsum("bi,bi->i", g2, normed.reshape(-1, n))
    dbeta = g2.sum(axis=0)
    gn = np.multiply(grad, gamma, out=take(
        "rln.gn", normed.shape, np.result_type(grad, gamma)))
    dvar = np.einsum("...i,...i->...", gn, normed)[..., None]
    dmean = gn.sum(axis=-1, keepdims=True)
    # da = inv * (gn - dmean/n - normed * dvar/n), accumulated in place
    # into the gn buffer (it is ours; `grad` is never written).
    dvar /= n
    dmean /= n
    gn -= dmean
    gn -= np.multiply(normed, dvar, out=SCRATCH.take(
        "layer_norm", normed.shape, np.result_type(normed, dvar)))
    gn *= inv
    return gn, gn, dgamma, dbeta


# ----------------------------------------------------------------------
# Fourier token mixing
# ----------------------------------------------------------------------
def fourier_mix(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """FNet mixing ``Re(FFT2(x))`` over the last two axes of a real ``x``
    of shape ``(..., seq, hidden)``, as a real-input transform.

    ``rfft`` over hidden leaves ``hidden // 2 + 1`` complex columns; the
    FFT over seq runs on those, in place, in pooled scratch; the real
    parts are the left half of the result and the Hermitian mirror
    ``Re Y[k, d] = Re Y[-k mod seq, hidden - d]`` fills the rest — about
    half the arithmetic of ``np.fft.fft2(x).real`` and no full-width
    complex array.  The DFT matrix is symmetric, so this is its own VJP
    (:func:`repro.nn.fourier_mix_2d` runs it both ways).  Computes in
    ``x``'s own precision.

    ``out`` is a C-contiguous array of ``x``'s shape and dtype that does
    not alias ``x``; it receives the bytes the allocating call returns.
    """
    if x.ndim < 2 or x.dtype.kind != "f":
        raise ValueError(
            f"expected a real (..., seq, hidden) array, got {x.dtype} {x.shape}"
        )
    if out is None:
        out = np.empty(x.shape, x.dtype)
    else:
        check_out(out, x.shape, x.dtype, x)
    seq, hidden = x.shape[-2:]
    half = hidden // 2 + 1
    spectrum = SCRATCH.take(
        "fourier", x.shape[:-1] + (half,), np.result_type(x.dtype, np.complex64))
    # norm="forward" is here for its dtype, not its scale: NumPy passes
    # the transform a factor, and only the scaled norms pass one of x's
    # own precision — the default's Python ``1`` sends a float32 transform
    # through the double loop and buffered casts both ways (5x the time
    # and ~1000 page faults at (1024, 128)).  The 1 / (seq * hidden) is
    # undone, exactly for powers of two, in the copies that fill ``out``.
    np.fft.rfft(x, axis=-1, norm="forward", out=spectrum)
    np.fft.fft(spectrum, axis=-2, norm="forward", out=spectrum)
    real, unscale = spectrum.real, x.dtype.type(seq * hidden)
    np.multiply(real, unscale, out=out[..., :half])
    # Columns hidden - d for d = half .. hidden - 1, rows -k mod seq.
    mirror = real[..., (hidden - 1) // 2:0:-1]
    np.multiply(mirror[..., :1, :], unscale, out=out[..., :1, half:])
    np.multiply(mirror[..., :0:-1, :], unscale, out=out[..., 1:, half:])
    return out


# ----------------------------------------------------------------------
# Fused cross-entropy from logits
# ----------------------------------------------------------------------
class CrossEntropyContext(NamedTuple):
    """Forward residuals for :func:`cross_entropy_logits_vjp`."""

    softmax: np.ndarray  # (B, C), cached for the O(B*C) backward
    targets: np.ndarray  # (B,) int64
    batch: int


def cross_entropy_logits_forward(
    logits: np.ndarray,
    targets: np.ndarray,
    need_ctx: bool = True,
) -> Tuple[np.ndarray, Optional[CrossEntropyContext]]:
    """Mean cross-entropy from ``(B, C)`` logits via fused logsumexp.

    ``loss = mean(logsumexp(logits) - logits[i, targets[i]])`` computed
    without materializing log-probabilities or gathering through an
    autograd ``getitem``; the softmax (one ``(B, C)`` array, computed in
    place over the shifted exponentials) is cached for the backward.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(
            "cross_entropy_logits expects (batch, classes) logits, "
            f"got {logits.shape}"
        )
    batch = logits.shape[0]
    if targets.shape != (batch,):
        raise ValueError(
            f"targets must be ({batch},), got {targets.shape}"
        )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    picked = shifted[np.arange(batch), targets]
    np.exp(shifted, out=shifted)
    denom = shifted.sum(axis=-1)
    loss = (np.log(denom) - picked).mean()
    if not need_ctx:
        return loss, None
    shifted /= denom[:, None]  # softmax, in place over the exponentials
    return loss, CrossEntropyContext(shifted, targets, batch)


def cross_entropy_logits_vjp(
    grad: np.ndarray, ctx: CrossEntropyContext
) -> Tuple[np.ndarray]:
    """Gradient ``((softmax - onehot) * grad / B,)`` — one O(B*C) pass."""
    softmax, targets, batch = ctx
    scale = np.asarray(grad) / batch
    g = softmax * scale
    g[np.arange(batch), targets] -= scale
    return (g,)


# ----------------------------------------------------------------------
# Segment-sum embedding backward
# ----------------------------------------------------------------------
def embedding_grad(
    indices: np.ndarray, grad: np.ndarray, num_embeddings: int,
    take: Callable = fresh,
) -> np.ndarray:
    """Scatter-add ``grad`` rows into a ``(num_embeddings, d)`` table.

    Equivalent to ``np.add.at(out, indices, grad)`` but vectorized:
    token positions are sorted by id (stable ``argsort``), duplicate
    runs are reduced with one ``np.add.reduceat`` sweep, and the unique
    rows are written with plain fancy assignment.  ``indices`` is any
    integer array; ``grad`` has shape ``indices.shape + (d,)``.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    d = grad.shape[-1]
    out = take("embedding.grad", (num_embeddings, d), grad.dtype)
    out[...] = 0
    if idx.size == 0:
        return out
    g = grad.reshape(idx.size, d)
    order = np.argsort(idx, kind="stable")
    sidx = idx[order]
    # ``order`` is a permutation: "clip" clips nothing and, unlike "raise", is unbuffered.
    sg = np.take(g, order, axis=0, mode="clip",
                 out=take("embedding.sorted", g.shape, g.dtype))
    seg_starts = np.concatenate(
        ([0], np.flatnonzero(sidx[1:] != sidx[:-1]) + 1)
    )
    # Sized for the most distinct ids a call can bring: one buffer a step.
    sums = take("embedding.sums", (min(idx.size, num_embeddings), d), g.dtype)
    out[sidx[seg_starts]] = np.add.reduceat(
        sg, seg_starts, axis=0, out=sums[:len(seg_starts)])
    return out

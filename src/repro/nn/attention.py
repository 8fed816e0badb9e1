"""Multi-head attention and Fourier token-mixing blocks."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..kernels import attention as AK
from . import tensor as F
from .butterfly_layer import ButterflyLinear
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor


class MultiHeadAttention(Module):
    """Standard scaled-dot-product multi-head attention.

    The four projection layers (Q, K, V, output) can be either dense
    (vanilla Transformer) or butterfly-factorized (the paper's ABfly
    block) by setting ``butterfly=True``.

    The attention computation itself runs through the fused
    attention kernel (:mod:`repro.kernels.attention`): one
    autograd node per call, one cache-sized score tile at a time, cached
    causal bias buffers, and a dedicated single-token fast path for
    KV-cache decoding.  The composite op chain survives only for the
    training-with-attention-dropout configuration, which needs the
    materialized softmax.
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        dropout: float = 0.0,
        butterfly: bool = False,
        causal: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        rng = rng or np.random.default_rng()
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.butterfly = butterfly
        self.causal = causal
        proj = ButterflyLinear if butterfly else Linear
        self.q_proj = proj(d_model, d_model, rng=rng)
        self.k_proj = proj(d_model, d_model, rng=rng)
        self.v_proj = proj(d_model, d_model, rng=rng)
        self.out_proj = proj(d_model, d_model, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, L, D) -> (B, H, L, Dh)
        x = F.reshape(x, (batch, seq, self.n_heads, self.d_head))
        return F.transpose(x, (0, 2, 1, 3))

    def forward(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        layer_kv=None,
    ) -> Tensor:
        """Attend over ``x`` of shape (batch, seq, d_model).

        ``mask`` is an optional boolean array (batch, seq) with True for
        valid positions; masked positions receive -inf scores as keys.

        ``layer_kv`` (a :class:`repro.serving.kv_cache.LayerKV`) switches
        to the incremental decode path: ``x`` then holds only *new*
        tokens, whose keys/values are appended to the cache, and queries
        attend over the full cached context.  Requires ``causal=True``
        and is inference-only (gradients do not flow through the cache).
        """
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)
        if layer_kv is not None:
            if not self.causal:
                raise ValueError("KV-cached attention requires causal=True")
            if mask is not None:
                raise ValueError(
                    "KV-cached attention handles padding via the cache's "
                    "per-row lengths; an explicit key mask is not supported"
                )
            return self._attend_cached(q, k, v, layer_kv, batch, seq)

        if self.training and self.attn_dropout.rate > 0.0:
            # Attention-probability dropout needs the materialized
            # softmax; only this (training + dropout) configuration pays
            # for the composite op chain.
            context = self._attend_composite(q, k, v, mask, seq)
        else:
            context = F.scaled_dot_attention(
                q, k, v, causal=self.causal, key_mask=mask,
                scale=1.0 / math.sqrt(self.d_head),
            )
        context = F.transpose(context, (0, 2, 1, 3))
        context = F.reshape(context, (batch, seq, self.d_model))
        return self.out_proj(context)

    def _attend_composite(
        self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray], seq: int
    ) -> Tensor:
        """Composite-op attention (only used for attention-prob dropout)."""
        scores = F.matmul(q, F.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(self.d_head))
        if mask is not None:
            scores = scores + Tensor(AK.padding_bias(mask, scores.dtype)[:, None, None, :])
        if self.causal:
            scores = scores + Tensor(AK.causal_bias(seq, seq, scores.dtype))
        attn = F.softmax(scores, axis=-1)
        attn = self.attn_dropout(attn)
        return F.matmul(attn, v)  # (B, H, L, Dh)

    def _attend_cached(
        self, q: Tensor, k: Tensor, v: Tensor, layer_kv, batch: int, seq: int
    ) -> Tensor:
        """Incremental attention over cached keys/values plus new tokens.

        Row ``b`` already holds ``lengths[b]`` cached positions; the new
        tokens land at ``lengths[b] .. lengths[b] + seq - 1``.  Query
        ``s`` may attend to cached positions and to new positions up to
        its own (causal), which also masks the padding of shorter rows
        in a ragged batch.  A single new token outside autograd (the
        serving decode step) takes :func:`repro.kernels.attention_decode`;
        everything else (prefill, multi-token continuation) goes through
        the fused kernel with per-row query offsets.
        """
        if self.training and self.attn_dropout.rate > 0.0:
            raise RuntimeError(
                "KV-cached attention is inference-only and does not apply "
                "attention dropout; call .eval() first"
            )
        lengths = layer_kv.lengths
        layer_kv.write(k.data, v.data)
        total = int(lengths.max()) + seq if batch else seq
        k_all, v_all = layer_kv.view(total)
        scale = 1.0 / math.sqrt(self.d_head)
        if seq == 1 and not F.is_grad_enabled():
            # Decode fast path: one new token per row against the cached
            # context — no transposes, no reshapes, no bias arrays
            # (ragged rows are masked by per-row lengths inside the
            # kernel).  This is the serving engine's per-step hot path.
            ctx = AK.attention_decode(
                q.data[:, :, 0], k_all, v_all, lengths=lengths, scale=scale
            )
            return self.out_proj(Tensor(ctx.reshape(batch, 1, self.d_model)))
        context = F.scaled_dot_attention(
            q, Tensor(k_all), Tensor(v_all),
            causal=True, q_start=lengths, scale=scale,
        )  # (B, H, S, Dh)
        context = F.transpose(context, (0, 2, 1, 3))
        context = F.reshape(context, (batch, seq, self.d_model))
        return self.out_proj(context)


class FourierMixing(Module):
    """FNet-style parameter-free token mixing: ``Re(FFT2(x))``.

    Replaces the attention sub-layer in FBfly blocks.  The 2D transform
    runs along the sequence and hidden axes; only the real component is
    kept, exactly as in FNet / the paper's Fourier layer.
    """

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        return F.fourier_mix_2d(x)

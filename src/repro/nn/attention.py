"""Multi-head attention and Fourier token-mixing blocks."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import tensor as F
from .butterfly_layer import ButterflyLinear
from .layers import Linear
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
    causal bias buffers.  KV-cached incremental attention is not a
    module path: a decoder's inference program
    (:mod:`repro.models.decode_program`) runs the projections and the
    attention kernels directly.
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
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

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, L, D) -> (B, H, L, Dh)
        x = F.reshape(x, (batch, seq, self.n_heads, self.d_head))
        return F.transpose(x, (0, 2, 1, 3))

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend over ``x`` of shape (batch, seq, d_model).

        ``mask`` is an optional boolean array (batch, seq) with True for
        valid positions; masked positions receive -inf scores as keys.
        """
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)
        context = F.scaled_dot_attention(
            q, k, v, causal=self.causal, key_mask=mask,
            scale=1.0 / math.sqrt(self.d_head),
        )
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

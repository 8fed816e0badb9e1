"""Transformer blocks: vanilla/FBfly/ABfly encoder blocks and the causal
decoder block (paper Fig. 5; Section II-A for the decoder variant)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import tensor as F


class FeedForward(nn.Module):
    """Two-layer FFN; dense for the vanilla models, butterfly for FABNet."""

    def __init__(
        self,
        d_hidden: int,
        d_ffn: int,
        butterfly: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        layer = nn.ButterflyLinear if butterfly else nn.Linear
        self.butterfly = butterfly
        self.fc1 = layer(d_hidden, d_ffn, rng=rng)
        self.fc2 = layer(d_ffn, d_hidden, rng=rng)
        self.act = nn.GELU()

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.fc2(self.act(self.fc1(x)))


class DecoderBlock(nn.Module):
    """Causal ABfly block: masked butterfly attention + butterfly FFN.

    ``forward`` is the full-window ``Tensor`` graph, the programs'
    oracle.  Training and KV-cached incremental decoding read this
    block's layers from the decoder's programs
    (:mod:`repro.models.decode_program`) instead.
    """

    def __init__(
        self,
        d_hidden: int,
        n_heads: int,
        r_ffn: int,
        butterfly: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.attn = nn.MultiHeadAttention(
            d_hidden, n_heads, butterfly=butterfly, causal=True, rng=rng,
        )
        self.norm1 = nn.LayerNorm(d_hidden)
        self.ffn = FeedForward(
            d_hidden, d_hidden * r_ffn, butterfly=butterfly, rng=rng
        )
        self.norm2 = nn.LayerNorm(d_hidden)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        x = F.residual_layer_norm(
            x, self.attn(x),
            self.norm1.gamma, self.norm1.beta, eps=self.norm1.eps,
        )
        return F.residual_layer_norm(
            x, self.ffn(x), self.norm2.gamma, self.norm2.beta,
            eps=self.norm2.eps,
        )


class EncoderBlock(nn.Module):
    """One encoder block: token mixing + FFN, each with residual and LayerNorm.

    ``mixing`` chooses the token-mixing sub-layer:
      * ``"attention"`` — dense multi-head attention (vanilla Transformer).
      * ``"fourier"`` — parameter-free 2D-FFT mixing (FNet / FBfly).
      * ``"butterfly_attention"`` — attention with butterfly Q/K/V/O
        projections (the paper's ABfly block).

    ``butterfly_ffn`` selects butterfly-factorized FFN weights.
    """

    MIXINGS = ("attention", "fourier", "butterfly_attention")

    def __init__(
        self,
        d_hidden: int,
        n_heads: int,
        r_ffn: int,
        mixing: str = "attention",
        butterfly_ffn: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if mixing not in self.MIXINGS:
            raise ValueError(f"mixing must be one of {self.MIXINGS}, got {mixing!r}")
        self.mixing_kind = mixing
        self.butterfly_ffn = butterfly_ffn
        if mixing == "fourier":
            self.mixer = nn.FourierMixing()
        else:
            self.mixer = nn.MultiHeadAttention(
                d_hidden,
                n_heads,
                butterfly=(mixing == "butterfly_attention"),
                rng=rng,
            )
        self.norm1 = nn.LayerNorm(d_hidden)
        self.ffn = FeedForward(
            d_hidden, d_hidden * r_ffn, butterfly=butterfly_ffn, rng=rng
        )
        self.norm2 = nn.LayerNorm(d_hidden)

    def forward(self, x: nn.Tensor, mask: Optional[np.ndarray] = None) -> nn.Tensor:
        mixed = self.mixer(x, mask=mask)
        x = F.residual_layer_norm(
            x, mixed, self.norm1.gamma, self.norm1.beta,
            eps=self.norm1.eps,
        )
        x = F.residual_layer_norm(
            x, self.ffn(x), self.norm2.gamma, self.norm2.beta,
            eps=self.norm2.eps,
        )
        return x


def make_fbfly_block(
    d_hidden: int, n_heads: int, r_ffn: int,
    rng: Optional[np.random.Generator] = None,
) -> EncoderBlock:
    """FBfly: Fourier mixing + butterfly FFN (paper Fig. 5, bottom blocks)."""
    return EncoderBlock(
        d_hidden, n_heads, r_ffn, mixing="fourier", butterfly_ffn=True, rng=rng
    )


def make_abfly_block(
    d_hidden: int, n_heads: int, r_ffn: int,
    rng: Optional[np.random.Generator] = None,
) -> EncoderBlock:
    """ABfly: butterfly-projected attention + butterfly FFN (paper Fig. 5)."""
    return EncoderBlock(
        d_hidden, n_heads, r_ffn,
        mixing="butterfly_attention", butterfly_ffn=True, rng=rng,
    )

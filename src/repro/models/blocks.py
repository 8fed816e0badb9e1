"""The one transformer block — vanilla, FBfly or ABfly, bidirectional or
causal — and the layout a model stacks it in (paper Fig. 5; Section II-A:
a decoder block is the same block with a causal mask)."""

from __future__ import annotations

from typing import Optional, Tuple

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


class Block(nn.Module):
    """One block: token mixing + FFN, each with residual and LayerNorm.

    ``mixing`` chooses the token-mixing sub-layer:
      * ``"attention"`` — dense multi-head attention (vanilla Transformer).
      * ``"fourier"`` — parameter-free 2D-FFT mixing (FNet / FBfly).
      * ``"butterfly_attention"`` — attention with butterfly Q/K/V/O
        projections (the paper's ABfly block).

    ``butterfly_ffn`` selects butterfly-factorized FFN weights, and
    ``causal`` masks attention to earlier positions: a decoder stacks
    causal blocks, an encoder bidirectional ones.  Fourier mixing has no
    causal form.  ``forward`` is the ``Tensor`` graph, the programs'
    oracle; the programs (:mod:`repro.models.program`) read the block's
    layers instead.
    """

    MIXINGS = ("attention", "fourier", "butterfly_attention")

    def __init__(
        self,
        d_hidden: int,
        n_heads: int,
        r_ffn: int,
        mixing: str = "attention",
        butterfly_ffn: bool = False,
        causal: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if mixing not in self.MIXINGS:
            raise ValueError(f"mixing must be one of {self.MIXINGS}, got {mixing!r}")
        if causal and mixing == "fourier":
            raise ValueError("Fourier mixing has no causal form")
        self.mixing_kind = mixing
        self.butterfly_ffn = butterfly_ffn
        if mixing == "fourier":
            self.mixer = nn.FourierMixing()
        else:
            self.mixer = nn.MultiHeadAttention(
                d_hidden,
                n_heads,
                butterfly=(mixing == "butterfly_attention"),
                causal=causal,
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


def block_layout(n_fbfly: int, n_abfly: int,
                 butterfly: bool = True) -> Tuple[Tuple[str, bool], ...]:
    """A model's blocks in order, as ``(mixing, butterfly_ffn)`` pairs:
    ``n_fbfly`` Fourier blocks followed by ``n_abfly`` attention blocks
    (paper Fig. 5).  With ``butterfly`` they are FBfly and ABfly blocks;
    without it, FNet blocks and vanilla attention blocks with dense FFNs.
    Every model reads its blocks from here — the encoder builders, the
    decoder (``block_layout(0, n_total, butterfly)``, its blocks causal),
    the instruction stream and the analytical models, which walk each
    block's :func:`block_layers`.
    """
    attention = "butterfly_attention" if butterfly else "attention"
    return ((("fourier", butterfly),) * n_fbfly
            + ((attention, butterfly),) * n_abfly)


def block_layers(mixing: str, butterfly_ffn: bool) -> Tuple[Tuple[str, str], ...]:
    """One block's layers in stream order, as ``(tag, kind)`` pairs: the
    only list of a block's sublayers.  The instruction stream, the cycle
    model, the FLOP and parameter counts, the CPU/GPU rooflines and the
    dense baseline are each a fold over it with their own cost per kind.

    An attention block projects K, V, then Q (the paper's reordered
    schedule, Fig. 14), runs the attention core and projects the output;
    a Fourier block mixes with one 2D FFT.  Both then add + norm, run the
    FFN (``ffn1``, GELU, ``ffn2``) and add + norm again.  A linear layer's
    kind is ``"butterfly"`` or ``"dense"``; the others are
    ``"attention"``, ``"fourier"``, ``"gelu"`` and ``"add_norm"``.
    """
    ffn = "butterfly" if butterfly_ffn else "dense"
    if mixing == "fourier":
        mix = (("mix", "fourier"),)
    else:
        proj = "butterfly" if mixing == "butterfly_attention" else "dense"
        mix = (("k_proj", proj), ("v_proj", proj), ("q_proj", proj),
               ("attn", "attention"), ("out_proj", proj))
    return mix + (("mix", "add_norm"), ("ffn1", ffn), ("ffn", "gelu"),
                  ("ffn2", ffn), ("ffn", "add_norm"))

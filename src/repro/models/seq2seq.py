"""Encoder-decoder (sequence-to-sequence) butterfly Transformer.

Paper Figure 2 describes the original encoder-decoder Transformer; the
paper evaluates encoder-only models but its compression applies to every
linear layer in the stack.  This module completes the taxonomy: a seq2seq
model whose encoder blocks, decoder blocks and cross-attention
projections are all butterfly-compressed.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import nn
from ..nn import tensor as F
from .config import ModelConfig


class CrossAttention(nn.Module):
    """Multi-head attention where queries attend to encoder memory."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        butterfly: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        rng = rng or np.random.default_rng()
        proj = nn.ButterflyLinear if butterfly else nn.Linear
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.q_proj = proj(d_model, d_model, rng=rng)
        self.k_proj = proj(d_model, d_model, rng=rng)
        self.v_proj = proj(d_model, d_model, rng=rng)
        self.out_proj = proj(d_model, d_model, rng=rng)

    def forward(self, x: nn.Tensor, memory: nn.Tensor) -> nn.Tensor:
        """``x``: (B, Lt, D) decoder states; ``memory``: (B, Ls, D)."""
        batch, lt, _ = x.shape
        ls = memory.shape[1]

        def split(t: nn.Tensor, length: int) -> nn.Tensor:
            t = F.reshape(t, (batch, length, self.n_heads, self.d_head))
            return F.transpose(t, (0, 2, 1, 3))

        q = split(self.q_proj(x), lt)
        k = split(self.k_proj(memory), ls)
        v = split(self.v_proj(memory), ls)
        scores = F.matmul(q, F.transpose(k, (0, 1, 3, 2))) * (
            1.0 / math.sqrt(self.d_head)
        )
        attn = F.softmax(scores, axis=-1)
        ctx = F.matmul(attn, v)
        ctx = F.reshape(F.transpose(ctx, (0, 2, 1, 3)), (batch, lt, self.d_model))
        return self.out_proj(ctx)


class Seq2SeqDecoderBlock(nn.Module):
    """Causal self-attention + cross-attention + butterfly FFN."""

    def __init__(
        self,
        d_hidden: int,
        n_heads: int,
        r_ffn: int,
        butterfly: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.self_attn = nn.MultiHeadAttention(
            d_hidden, n_heads, butterfly=butterfly, causal=True, rng=rng
        )
        self.norm1 = nn.LayerNorm(d_hidden)
        self.cross_attn = CrossAttention(d_hidden, n_heads, butterfly, rng=rng)
        self.norm2 = nn.LayerNorm(d_hidden)
        layer = nn.ButterflyLinear if butterfly else nn.Linear
        self.fc1 = layer(d_hidden, d_hidden * r_ffn, rng=rng)
        self.fc2 = layer(d_hidden * r_ffn, d_hidden, rng=rng)
        self.act = nn.GELU()
        self.norm3 = nn.LayerNorm(d_hidden)

    def forward(self, x: nn.Tensor, memory: nn.Tensor) -> nn.Tensor:
        # Each sub-layer closes with the fused residual + LayerNorm node.
        x = F.residual_layer_norm(
            x, self.self_attn(x), self.norm1.gamma, self.norm1.beta,
            eps=self.norm1.eps,
        )
        x = F.residual_layer_norm(
            x, self.cross_attn(x, memory), self.norm2.gamma, self.norm2.beta,
            eps=self.norm2.eps,
        )
        return F.residual_layer_norm(
            x, self.fc2(self.act(self.fc1(x))), self.norm3.gamma,
            self.norm3.beta, eps=self.norm3.eps,
        )


class ButterflySeq2Seq(nn.Module):
    """Full encoder-decoder Transformer with butterfly compression.

    The encoder is FABNet-style (FBfly blocks by default); the decoder
    stacks causal + cross-attention blocks.  Shapes follow Fig. 2.
    """

    def __init__(self, config: ModelConfig, butterfly: bool = True) -> None:
        super().__init__()
        from .encoder import build_fabnet

        rng = np.random.default_rng(config.seed + 17)
        self.config = config
        self.butterfly = butterfly
        self.encoder = build_fabnet(config)
        self.tgt_emb = nn.Embedding(config.vocab_size, config.d_hidden, rng=rng)
        self.tgt_pos = nn.Parameter(
            rng.normal(0.0, 0.02, size=(config.max_len, config.d_hidden))
        )
        self.decoder_blocks = nn.ModuleList([
            Seq2SeqDecoderBlock(config.d_hidden, config.n_heads, config.r_ffn,
                                butterfly, rng=rng)
            for _ in range(config.n_total)
        ])
        self.out_norm = nn.LayerNorm(config.d_hidden)
        self.lm_head = nn.Linear(config.d_hidden, config.vocab_size, rng=rng)

    # ------------------------------------------------------------------
    def encode(self, src: np.ndarray) -> nn.Tensor:
        """Encoder memory of shape (B, Ls, D)."""
        src = np.asarray(src, dtype=np.int64)
        seq = src.shape[1]
        x = self.encoder.token_emb(src) + F.getitem(self.encoder.pos_emb, slice(0, seq))
        for block in self.encoder.blocks:
            x = block(x)
        return self.encoder.head_norm(x)

    def decode(self, tgt: np.ndarray, memory: nn.Tensor) -> nn.Tensor:
        """Next-token logits (B, Lt, vocab) given target prefix + memory."""
        tgt = np.asarray(tgt, dtype=np.int64)
        seq = tgt.shape[1]
        if seq > self.config.max_len:
            raise ValueError(f"target length {seq} exceeds max_len")
        y = self.tgt_emb(tgt) + F.getitem(self.tgt_pos, slice(0, seq))
        for block in self.decoder_blocks:
            y = block(y, memory)
        return self.lm_head(self.out_norm(y))

    def forward(self, src: np.ndarray, tgt: np.ndarray) -> nn.Tensor:
        return self.decode(tgt, self.encode(src))

    def loss(self, src: np.ndarray, tgt: np.ndarray) -> nn.Tensor:
        """Teacher-forced loss: predict tgt[1:] from tgt[:-1] + memory."""
        tgt = np.asarray(tgt, dtype=np.int64)
        logits = self.forward(src, tgt[:, :-1])
        batch, seq, vocab = logits.shape
        return F.cross_entropy_logits(
            F.reshape(logits, (batch * seq, vocab)), tgt[:, 1:].reshape(-1)
        )

    def greedy_translate(
        self, src: np.ndarray, bos: int, max_len: Optional[int] = None
    ) -> np.ndarray:
        """Greedy decoding from a BOS token."""
        src = np.atleast_2d(np.asarray(src, dtype=np.int64))
        max_len = max_len or src.shape[1] + 1
        was_training = self.training
        self.eval()
        try:
            with nn.no_grad():
                memory = self.encode(src)
                tgt = np.full((src.shape[0], 1), bos, dtype=np.int64)
                for _ in range(max_len - 1):
                    logits = self.decode(tgt, memory).data[:, -1]
                    nxt = logits.argmax(axis=-1)
                    tgt = np.concatenate([tgt, nxt[:, None]], axis=1)
        finally:
            self.train(was_training)
        return tgt


def generate_copy_task(
    n_samples: int = 128,
    seq_len: int = 12,
    vocab: int = 12,
    bos: int = 1,
    reverse: bool = False,
    seed: int = 0,
):
    """Toy seq2seq data: copy (or reverse) the source sequence.

    Returns (src, tgt) where ``tgt`` starts with BOS followed by the
    (possibly reversed) source; tokens are drawn from [2, vocab).
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(2, vocab, size=(n_samples, seq_len)).astype(np.int64)
    body = src[:, ::-1] if reverse else src
    tgt = np.concatenate(
        [np.full((n_samples, 1), bos, dtype=np.int64), body], axis=1
    )
    return src, tgt

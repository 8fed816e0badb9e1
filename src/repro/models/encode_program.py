"""An encoder's ``no_grad`` forward as one flat program over owned buffers.

The paper's engine is configured once per layer and then streams vectors
through buffers it owns.  :class:`EncodeProgram` does that for an
:class:`~repro.models.encoder.EncoderClassifier`: under ``no_grad``, with
the fused kernels on, ``encode`` / ``forward`` run

    embedding gather + positions -> per block { Fourier mixing, or
    Q/K/V projections with heads as strided views ->
    ``attention_forward`` -> heads merged -> output projection;
    ``residual_layer_norm_forward``; FFN with bias + GELU in the first
    projection's buffer; ``residual_layer_norm_forward`` } -> head norm
    -> pooling

on plain arrays, every activation written through the kernels' ``out=``
into a workspace the program owns.  The ``Tensor`` graph stays the
training path and, under :func:`~repro.kernels.use_fused` ``(False)``,
the oracle; this is the only fused ``no_grad`` path.

The contract (see CONTRIBUTING, "The inference program"):

* **Compiled, keyed and invalidated** like the decoder's program
  (:mod:`repro.models.program`); activations take the parameters' dtype.
* **The workspace** (:data:`WORKSPACE`) is one
  :class:`~repro.kernels.pool.ScratchPool` for every encoder in the
  process — a rebuilt program, or the next model of the same shape,
  writes into the memory the last one did, where a workspace per program
  grew the heap by its size at every rebuild.  Per thread (two threads
  forwarding one model never share a buffer), grow-only (a shorter batch
  reuses the longest one's memory), capped (past the budget a buffer is
  an ordinary allocation).  Nothing in it outlives a run.  At a steady
  shape a forward allocates nothing large, so the process takes no page
  fault for it — at ``(1, 1024, 128)`` fp32 the graph's ~25 arrays of
  0.5-2 MB each cost ~3400 faults per forward, a fifth of its time.
  Ownership has to be *complete* for that: glibc sizes its trim and mmap
  thresholds by the largest block it has seen freed, so pooling some of
  the temporaries moves the rest across a threshold (it can raise the
  count).  The fault count is the judge, ``tests/models/
  test_encode_program.py`` its gate.
* **Owned outputs**: only the pooled features / logits handed back are
  fresh arrays; nothing a caller holds is ever written again.
* **No process-wide state**: a run reads no dtype policy and enters no
  context, so threads may forward one model concurrently (under a
  ``no_grad`` their caller holds — that flag *is* process-wide).
* **Stored-weight replicas** run the same program; their layers'
  ``apply`` owns its output, so those activations are allocated.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from ..kernels import (
    attention_forward,
    fourier_mix,
    residual_layer_norm_forward,
)
from ..kernels.pool import ScratchPool
from ..nn.tensor import layer_norm_forward
from .program import InferenceProgram, Norm, Projection


#: Every encoder program's activations (see the module docstring).
WORKSPACE = ScratchPool("models_workspace")


class _Attention(NamedTuple):
    q_proj: Projection
    k_proj: Projection
    v_proj: Projection
    out_proj: Projection
    n_heads: int
    d_head: int


class _Block(NamedTuple):
    attention: Optional[_Attention]  # None: Fourier mixing
    norm1: Norm
    fc1: Projection  # bias + GELU included
    fc2: Projection
    norm2: Norm
    d_ffn: int


class EncodeProgram(InferenceProgram):
    """The compiled forward of one encoder, valid while :meth:`current`
    holds."""

    def __init__(self, model) -> None:
        super().__init__()
        self._token_emb = self._array(model.token_emb.weight)
        self._pos_emb = self._array(model.pos_emb)
        self.dtype = self._token_emb.dtype
        self._blocks = [
            _Block(
                None if block.mixing_kind == "fourier" else _Attention(
                    self._projection(block.mixer, "q_proj"),
                    self._projection(block.mixer, "k_proj"),
                    self._projection(block.mixer, "v_proj"),
                    self._projection(block.mixer, "out_proj"),
                    block.mixer.n_heads,
                    block.mixer.d_head,
                ),
                self._norm(block.norm1),
                self._projection(block.ffn, "fc1", activation="gelu"),
                self._projection(block.ffn, "fc2"),
                self._norm(block.norm2),
                block.ffn.fc1.out_features,
            )
            for block in model.blocks
        ]
        self._head_norm = self._norm(model.head_norm)
        self._head = self._projection(model, "head")
        self._cls = model.config.pooling == "cls"

    def run(self, tokens: np.ndarray, mask: Optional[np.ndarray],
            classify: bool) -> np.ndarray:
        """Class logits — or, without ``classify``, the pooled ``(batch,
        d_hidden)`` features — for validated ``(batch, seq)`` ids and an
        optional boolean mask.  An owned array either way."""
        pooled = self._pooled(tokens, mask)
        return self._head(pooled) if classify else pooled

    def _pooled(self, tokens: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
        batch, seq = tokens.shape
        dtype = self.dtype
        take = WORKSPACE.take
        hidden = (batch, seq, self._token_emb.shape[1])
        x = take("x", hidden, dtype)
        # The ids were validated, so the unbuffered mode is safe.
        np.take(self._token_emb, tokens, axis=0, out=x, mode="clip")
        x += self._pos_emb[:seq]
        for attention, norm1, fc1, fc2, norm2, d_ffn in self._blocks:
            if attention is None:
                mixed = fourier_mix(x, out=take("sub", hidden, dtype))
            else:
                mixed = self._attend(attention, x, mask)
            y, _ = residual_layer_norm_forward(
                x, mixed, norm1[0], norm1[1], eps=norm1[2], need_ctx=False,
                out=take("y", hidden, dtype))
            wide = fc1(y, take("wide", (batch, seq, d_ffn), dtype))
            x, _ = residual_layer_norm_forward(
                y, fc2(wide, take("sub", hidden, dtype)), norm2[0], norm2[1],
                eps=norm2[2], need_ctx=False, out=take("x", hidden, dtype))
        if self._cls:  # the norm is per row: only the pooled row needs it
            return layer_norm_forward(x[:, 0], *self._head_norm)[0]
        x, _, _ = layer_norm_forward(
            x, *self._head_norm, out=take("y", hidden, dtype))
        if mask is None:
            pooled = x.sum(axis=1)
            pooled *= dtype.type(1.0 / seq)
            return pooled
        weights = mask.astype(dtype)[..., None]
        x *= weights
        return x.sum(axis=1) / weights.sum(axis=1).clip(min=1.0)

    def _attend(self, attention: _Attention, x: np.ndarray,
                mask: Optional[np.ndarray]) -> np.ndarray:
        q_proj, k_proj, v_proj, out_proj, n_heads, d_head = attention
        batch, seq, _ = hidden = x.shape
        dtype = self.dtype
        take = WORKSPACE.take
        heads = (batch, seq, n_heads, d_head)
        # The FFN's wide buffer is idle during attention: the three
        # projections and the context take a quarter each (r_ffn = 4 is
        # an exact fit).  Heads are strided views of a projection's output.
        wide = take("wide", (4,) + hidden, dtype)
        q, k, v = (
            proj(x, part).reshape(heads).transpose(0, 2, 1, 3)
            for proj, part in zip((q_proj, k_proj, v_proj), wide)
        )
        context, _ = attention_forward(
            q, k, v, key_mask=mask, scale=1.0 / math.sqrt(d_head),
            need_ctx=False,
            out=wide[3].reshape(batch, n_heads, seq, d_head))
        # The queries are spent: their quarter takes the merged heads.
        merged = wide[0].reshape(heads)
        np.copyto(merged, context.transpose(0, 2, 1, 3))
        return out_proj(merged.reshape(hidden), take("sub", hidden, dtype))

"""A decoder's incremental inference as one flat program of kernel calls.

The paper's engine is configured once per layer and then streams
vectors.  :class:`~repro.kernels.FrozenLadder` does that for one
butterfly ladder; :class:`DecodeProgram` does it for a whole
:class:`~repro.models.decoder.ButterflyDecoderLM`: ``prefill`` /
``decode_step`` / cached ``generate`` run

    embedding gather -> per block { Q/K/V projections, heads addressed
    as strided views, K/V written to the cache tail, ``attention_decode``
    (one new token) or ``attention_forward(q_start=...)``, output
    projection, ``residual_layer_norm_forward``, FFN with bias + GELU in
    the GEMM epilogue, ``residual_layer_norm_forward`` } -> final norm
    -> LM head

on plain arrays, with no ``Tensor``, ``Module.__call__`` or autograd
bookkeeping in between; it is the only incremental inference path.  A
decoder's blocks are the encoders' :class:`~repro.models.blocks.Block`,
causal, so both programs here compile like the encoder's, through
:class:`~repro.models.program.InferenceProgram`; only their runs and
their end (``END``: the final norm and the LM head) are their own.  A
decoder trains through :class:`LMTrainProgram`, at the end of this
module.  ``run`` returns
``(batch, vocab)`` logits at each row's last new position, and only that
position feeds them: every block writes the keys/values of every new
position, but in a multi-token call the last block's query side (Q,
attention, output projection, norms, FFN), the final norm and the LM
head run on each row's last position alone.

The contract (see CONTRIBUTING, "The inference program"):

* **Keyed like** :class:`~repro.kernels.FrozenLadderCache`: the program
  records the ``(version, data)`` of every parameter it read and the
  identity of every projection layer, and the model's
  :class:`~repro.models.program.ProgramCache` rebuilds it when an
  optimizer step, ``load_state_dict``, a ``.data`` rebind (a dtype switch
  is one) or a layer swap (quantization) changes any of them — one sweep
  per call.  Copies and pickles start empty.  (The compile and base
  shared with the encoder's programs: :mod:`repro.models.program`.)
* **Activations take the parameters' dtype** (``token_emb.weight``),
  never the ambient :func:`~repro.kernels.default_dtype` policy.
* **Row independence**: every projection is the layer's own inference
  operator applied on the input's own ``(B, S, in)`` axes — never a
  flattened ``(B*S, in)`` and never a fused QKV operator, because BLAS
  picks its kernel by the GEMM's shape — so the program adds no
  dependence of a row's bytes on who shares its batch.  For fp replicas
  at equal context lengths a batched row *is* the solo row, byte for
  byte; ragged batches (attention over a key view as wide as the longest
  row) and stored-weight replicas (the dequant GEMM streams the weight
  once for the flattened batch) keep the token-level identity they had.
  A stored dense layer is a closure over its packed blocks
  (:class:`~repro.kernels.PackedWeight`), scales and bias, run through
  :func:`~repro.kernels.quantized_linear`.  Stored Q/K/V *could* share
  one call byte-identically (a packed weight is a list of independent
  blocks) and were tried so: the call saved is ~45 us of a 3.6 ms step,
  and the strided ``(B, S, 3 * D)`` views it hands attention and the
  cache write cost more — 6/6 alternating ``decode_int8`` pairs lost
  3-4% of ``itl_p50_ms`` — so three calls it stays, for every layer kind.
* **Each operator paid for once**: a projection calls its layer's
  operator directly (a butterfly layer's ``FrozenLadder.apply``, which
  owns its fault point and span), and the kernels reduce through the
  ufuncs with ``np.mean``'s arithmetic: a step enters no numpy Python
  wrapper (``tests/models/test_decode_calls.py`` counts them).
* **Owned outputs**: the returned logits are a fresh array; the program
  keeps no scratch of its own (the kernels' pools are per-thread), so
  concurrent callers never alias.
* **Oracle**: ``tests/conftest.py::reference_incremental`` is the
  ``Tensor``-graph version (dense layers through the projection kernel);
  ``tests/models/test_decode_program.py`` holds the program to its bytes.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import (
    ResidualLNContext,
    attention_decode,
    attention_forward,
    residual_layer_norm_forward,
)
from ..kernels.pool import fresh
from ..nn.tensor import layer_norm_forward
from .encode_program import TrainProgram, _close_vjp, _project, _project_vjp
from .program import InferenceProgram


class DecodeProgram(InferenceProgram):
    """The compiled incremental forward of one decoder, valid while
    :meth:`current` holds."""

    END = ("final_norm", "lm_head")

    # -- run -----------------------------------------------------------
    def run(self, tokens: np.ndarray, cache) -> np.ndarray:
        """Forward the new ``(batch, s_new)`` tokens against ``cache``.

        Writes their keys/values at each row's tail, advances the cache
        and returns owned ``(batch, vocab)`` logits at each row's last
        new position.
        """
        batch, s_new = tokens.shape
        lengths = cache.lengths
        # The longest row's context after this call: every key view's width.
        total = (int(np.maximum.reduce(lengths)) if batch else 0) + s_new
        max_len = min(len(self._pos_emb), cache.max_len)
        if batch and s_new and total > max_len:
            raise ValueError(
                f"position {total - 1} exceeds max_len "
                f"{max_len}; re-prefill the sliding window"
            )
        positions = lengths[:, None] + np.arange(s_new)
        rows = np.arange(batch)[:, None]
        x = self._token_emb[tokens] + self._pos_emb[positions]
        last = len(self._blocks) - 1
        for index, block in enumerate(self._blocks):
            (attention, (gamma1, beta1, eps1), fc1, fc2,
             (gamma2, beta2, eps2), _) = block
            q_proj, k_proj, v_proj, out_proj, n_heads, d_head, _ = attention
            heads = (batch, s_new, n_heads, d_head)
            kv = cache.layer(index)
            # Only the last new position feeds the logits: past the last
            # block's keys/values, a multi-token call runs on it alone.
            x_q = x[:, -1:] if index == last and s_new > 1 else x
            width = x_q.shape[1]
            # Heads are strided views of each projection's output; the
            # new keys/values go straight to the cache tail.
            q = q_proj(x_q).reshape(batch, width, n_heads, d_head)
            kv.k[rows, :, positions] = k_proj(x).reshape(heads)
            kv.v[rows, :, positions] = v_proj(x).reshape(heads)
            k_all, v_all = kv.view(total)
            scale = 1.0 / math.sqrt(d_head)
            if s_new == 1:
                context = attention_decode(
                    q[:, 0], k_all, v_all, lengths=lengths, scale=scale)
            else:  # written with its heads merged, for out_proj
                context = np.empty(q.shape, q.dtype)
                attention_forward(
                    q.transpose(0, 2, 1, 3), k_all, v_all, causal=True,
                    q_start=lengths + (s_new - width), scale=scale,
                    need_ctx=False, out=context.transpose(0, 2, 1, 3))
            attended = out_proj(context.reshape(batch, width, n_heads * d_head))
            x, _ = residual_layer_norm_forward(
                x_q, attended, gamma1, beta1, eps=eps1, need_ctx=False)
            x, _ = residual_layer_norm_forward(
                x, fc2(fc1(x)), gamma2, beta2, eps=eps2, need_ctx=False)
        x, _, _ = layer_norm_forward(x, *self._final_norm)
        logits = self._lm_head(x)[:, 0]
        cache.advance(s_new)
        return logits


class LMTrainProgram(TrainProgram):
    """The decoder's training program: the encoder's
    :class:`~repro.models.encode_program.TrainProgram` — embeddings, the
    block walk (causal attention, as the blocks' layers say) and one
    recorded node — ending in the final norm and the LM head at every
    position.  ``record(tokens, None, True)`` returns ``(batch, seq,
    vocab)`` logits, an allocated array."""

    END = DecodeProgram.END

    def _end(self, x, mask, classify, tape) -> np.ndarray:
        gamma, beta, eps = self._final_norm
        take = tape.take("head")
        y, normed, inv = layer_norm_forward(x, gamma.data, beta.data, eps, take=take)
        tape.norm = ResidualLNContext(normed, inv, gamma.data, take)
        logits, tape.head = _project(self._lm_head, y, fresh)
        return logits

    def _end_vjp(self, g: np.ndarray, tape) -> np.ndarray:
        return _close_vjp(self._final_norm,
                          _project_vjp(self._lm_head, g, tape.head), tape.norm)

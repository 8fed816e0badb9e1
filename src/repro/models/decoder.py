"""Decoder-only (GPT-style) butterfly language model.

The paper focuses on encoder-only networks but notes (Section II-A) that
"our hardware design is flexible and applicable to decoders too": a
decoder block is the same butterfly-compressed attention + FFN pipeline
with a causal mask, which is a score-matrix masking detail invisible to
the Butterfly Processor.  This module provides that decoder variant:
causal ABfly blocks, an autoregressive LM head, and greedy/sampled
generation.  With grad enabled a forward is one recorded node of the
model's :class:`~repro.models.decode_program.LMTrainProgram`, the
encoder's training walk with causal attention.

Generation runs over a per-layer KV cache (:mod:`repro.serving.kv_cache`)
by default: ``prefill`` runs the prompt once — computing past the last
block's keys/values only what the next token needs, the last position —
and every further token costs a single-token ``decode_step`` against the
cached keys/values instead of the O(T^2) full-window recompute of the
seed loop.  Those incremental forwards are not the ``Tensor`` graph:
they are the model's compiled
:class:`~repro.models.decode_program.DecodeProgram`, a flat ``no_grad``
sequence of kernel calls in the parameters' own dtype.  Because positions are
learned *absolute* embeddings, the sliding-window eviction at ``max_len``
re-prefills the clipped window (cached keys cannot shift), keeping
incremental decoding exactly equivalent to full recompute.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import kernels, nn
from ..nn import tensor as F
from ..nn.layers import token_ids
from ..serving.kv_cache import DecoderKVCache
from ..serving.sampling import sample_logits
from .blocks import DecoderBlock
from .config import ModelConfig
from .decode_program import DecodeProgram, LMTrainProgram
from .program import ProgramCache

__all__ = [
    "ButterflyDecoderLM",
    "DecoderBlock",
    "build_butterfly_decoder",
    "build_dense_decoder",
]


class ButterflyDecoderLM(nn.Module):
    """Autoregressive language model with butterfly-compressed blocks.

    Predicts token ``t+1`` from tokens ``<= t``; the LM head shares no
    weights with the embedding (simplest faithful variant).
    """

    def __init__(self, config: ModelConfig, butterfly: bool = True) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.butterfly = butterfly
        self.token_emb = nn.Embedding(config.vocab_size, config.d_hidden, rng=rng)
        self.pos_emb = nn.Parameter(
            rng.normal(0.0, 0.02, size=(config.max_len, config.d_hidden))
        )
        self.blocks = nn.ModuleList([
            DecoderBlock(config.d_hidden, config.n_heads, config.r_ffn,
                         butterfly=butterfly, rng=rng)
            for _ in range(config.n_total)
        ])
        self.final_norm = nn.LayerNorm(config.d_hidden)
        self.lm_head = nn.Linear(config.d_hidden, config.vocab_size, rng=rng)
        # The incremental-inference program, rebuilt when a parameter's
        # (version, data) or a projection layer changes; the training
        # program, when a projection layer changes.
        self._program = ProgramCache(DecodeProgram)
        self._train_program = ProgramCache(LMTrainProgram)

    # ------------------------------------------------------------------
    def _dtype_context(self):
        """The ``Tensor`` graph in the parameters' own dtype: activations
        follow the ambient policy, so an fp32 model called outside a
        dtype context would otherwise silently compute in fp64."""
        return nn.default_dtype(self.token_emb.weight.dtype)

    def _ids(self, tokens) -> np.ndarray:
        """Validated int64 ids (see :func:`~repro.nn.layers.token_ids`)."""
        return token_ids(tokens, self.token_emb.num_embeddings)

    def forward(self, tokens: np.ndarray) -> nn.Tensor:
        """Return next-token logits of shape (batch, seq, vocab).

        With grad enabled and the fused kernels on, the logits are one
        recorded node of the model's
        :class:`~repro.models.decode_program.LMTrainProgram`; otherwise
        (``no_grad``, or :func:`~repro.kernels.use_fused` ``(False)``)
        the ``Tensor`` graph, :meth:`_graph`, the program's oracle."""
        tokens = self._ids(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, seq), got {tokens.shape}")
        seq = tokens.shape[1]
        if seq > self.config.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len {self.config.max_len}")
        if kernels.fused_enabled() and F.is_grad_enabled():
            return self._train_program.get(self).record(tokens, None, True)
        return self._graph(tokens)

    def _graph(self, tokens: np.ndarray) -> nn.Tensor:
        """The ``Tensor`` graph of validated ``(batch, seq)`` ids."""
        with self._dtype_context():
            x = self.token_emb(tokens) + F.getitem(self.pos_emb, slice(0, tokens.shape[1]))
            for block in self.blocks:
                x = block(x)
            return self.lm_head(self.final_norm(x))

    def loss(self, tokens: np.ndarray) -> nn.Tensor:
        """Teacher-forced next-token cross-entropy over a ``(batch, seq >=
        2)`` token batch."""
        tokens = self._ids(tokens)
        if tokens.ndim != 2 or tokens.shape[0] < 1 or tokens.shape[1] < 2:
            raise ValueError(
                f"the loss needs (batch, seq >= 2) tokens, got shape {tokens.shape}")
        with self._dtype_context():
            logits = self.forward(tokens[:, :-1])
            batch, seq, vocab = logits.shape
            flat = F.reshape(logits, (batch * seq, vocab))
            return F.cross_entropy_logits(flat, tokens[:, 1:].reshape(-1))

    # ------------------------------------------------------------------
    # KV-cache incremental decoding (inference-only)
    # ------------------------------------------------------------------
    def make_cache(self, batch: int) -> DecoderKVCache:
        """Empty KV cache sized for this model and ``batch`` sequences."""
        cfg = self.config
        return DecoderKVCache(
            n_layers=len(self.blocks), batch=batch, n_heads=cfg.n_heads,
            d_head=cfg.d_hidden // cfg.n_heads, max_len=cfg.max_len,
            dtype=self.token_emb.weight.dtype,
        )

    def prefill(self, tokens: np.ndarray, cache: DecoderKVCache) -> np.ndarray:
        """Forward the new ``(batch, s_new)`` tokens against ``cache``.

        The one multi-token entry: any cache, ragged rows included.
        Appends the new keys/values at each row's tail, advances its
        lengths, and returns owned plain-numpy logits ``(batch, vocab)``
        at each row's last new position, in the parameters' dtype.
        Every new token lands at its row's next absolute position, which
        must stay below ``max_len`` (callers re-prefill the clipped
        window at the sliding-window edge).  Runs the compiled
        :class:`~repro.models.decode_program.DecodeProgram`.
        """
        tokens = self._ids(tokens)
        if tokens.ndim != 2 or not tokens.shape[1]:
            raise ValueError(
                f"tokens must be (batch, s_new) with s_new >= 1, got {tokens.shape}")
        return self._run(tokens, cache)

    def decode_step(self, tokens: np.ndarray, cache: DecoderKVCache) -> np.ndarray:
        """Single-token step: ``(batch,)`` new tokens -> ``(batch, vocab)`` logits."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ValueError(f"tokens must be (batch,), got {tokens.shape}")
        return self._run(tokens[:, None], cache)

    def _run(self, tokens: np.ndarray, cache: DecoderKVCache) -> np.ndarray:
        # The checks both entries share, on int64 (batch, s_new) tokens.
        if self.training:
            raise RuntimeError(
                "KV-cache decoding is inference-only; call .eval() first"
            )
        if tokens.shape[0] != cache.batch:
            raise ValueError(
                f"batch mismatch: cache has {cache.batch} rows, "
                f"tokens have {tokens.shape[0]}"
            )
        return self._program.get(self).run(tokens, cache)

    # ------------------------------------------------------------------
    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        temperature: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        top_k: int = 0,
        top_p: float = 1.0,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Autoregressive decoding; greedy when ``temperature == 0``.

        Sampling is vectorized over the batch (Gumbel-max with optional
        top-k / top-p filtering, shared with the serving engine).  With
        ``use_cache`` (default) decoding is incremental over a KV cache;
        ``use_cache=False`` keeps the full-window recompute path, which
        the parity tests use as the reference.
        """
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        rng = rng or np.random.default_rng()
        tokens = np.atleast_2d(self._ids(prompt)).copy()
        if max_new_tokens == 0:
            return tokens
        max_len = self.config.max_len
        was_training = self.training
        self.eval()
        try:
            with nn.no_grad():
                if not use_cache:
                    for _ in range(max_new_tokens):
                        window = tokens[:, -max_len:]
                        logits = self.forward(window).data[:, -1]
                        next_token = sample_logits(
                            logits, temperature=temperature,
                            top_k=top_k, top_p=top_p, rng=rng,
                        )
                        tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
                    return tokens
                cache = self.make_cache(tokens.shape[0])
                logits = self.prefill(tokens[:, -max_len:], cache)
                for step in range(max_new_tokens):
                    next_token = sample_logits(
                        logits, temperature=temperature,
                        top_k=top_k, top_p=top_p, rng=rng,
                    )
                    tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
                    if step == max_new_tokens - 1:
                        break
                    if int(cache.lengths.max()) >= max_len:
                        # Sliding-window edge: absolute positions shift, so
                        # re-prime the cache from the clipped window.
                        cache = self.make_cache(tokens.shape[0])
                        logits = self.prefill(tokens[:, -max_len:], cache)
                    else:
                        logits = self.decode_step(next_token, cache)
        finally:
            self.train(was_training)
        return tokens


def build_butterfly_decoder(config: ModelConfig) -> ButterflyDecoderLM:
    """GPT-style decoder with butterfly-compressed linear layers."""
    with config.dtype_context():
        return ButterflyDecoderLM(config, butterfly=True)


def build_dense_decoder(config: ModelConfig) -> ButterflyDecoderLM:
    """Dense decoder baseline (for compression comparisons)."""
    with config.dtype_context():
        return ButterflyDecoderLM(config, butterfly=False)

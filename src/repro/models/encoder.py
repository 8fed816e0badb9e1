"""Encoder-only classifier models: Transformer, FNet, FABNet.

All three share one skeleton (embeddings -> blocks -> pooling -> head) and
differ only in their block layout
(:func:`~repro.models.blocks.block_layout`): which
:class:`~repro.models.blocks.Block` variants they stack, in which
order, which is exactly the framing of the paper's Figure 5.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from .. import kernels, nn
from ..nn import tensor as F
from ..nn.layers import token_ids
from .blocks import Block, block_layout
from .config import ModelConfig
from .encode_program import EncodeProgram, TrainProgram
from .program import ProgramCache


class EncoderClassifier(nn.Module):
    """Token embeddings + positional embeddings + encoder blocks + head.

    With the fused kernels on, :meth:`encode` (and so :meth:`forward`)
    is the model's compiled program: under ``no_grad`` its
    :class:`~repro.models.encode_program.EncodeProgram`, with grad enabled
    its :class:`~repro.models.encode_program.TrainProgram` (one recorded
    node).  Under :func:`~repro.kernels.use_fused` ``(False)`` every call
    records the ``Tensor`` graph (:meth:`_graph`), the programs' oracle.
    """

    def __init__(self, config: ModelConfig, blocks: List[Block],
                 rng: np.random.Generator) -> None:
        super().__init__()
        if len(blocks) != config.n_total:
            raise ValueError(
                f"expected {config.n_total} blocks, got {len(blocks)}"
            )
        self.config = config
        self.token_emb = nn.Embedding(config.vocab_size, config.d_hidden, rng=rng)
        self.pos_emb = nn.Parameter.drawn(
            functools.partial(rng.normal, 0.0, 0.02), config.max_len, config.d_hidden)
        self.blocks = nn.ModuleList(blocks)
        self.head_norm = nn.LayerNorm(config.d_hidden)
        self.head = nn.Linear(config.d_hidden, config.n_classes, rng=rng)
        # The no-grad forward, rebuilt when a parameter's (version, data)
        # or a projection layer changes; the recorded one, when a
        # projection layer changes.
        self._program = ProgramCache(EncodeProgram)
        self._train_program = ProgramCache(TrainProgram)

    # ------------------------------------------------------------------
    def _dtype_context(self):
        """The ``Tensor`` graph in the parameters' own dtype: constants an
        op creates follow the ambient policy, so an fp32 model called
        outside a dtype context would otherwise silently compute in fp64
        (as :class:`~repro.models.decoder.ButterflyDecoderLM` does it)."""
        return nn.default_dtype(self.token_emb.weight.dtype)

    def _validated(self, tokens, mask):
        """``(tokens, mask)`` as an int64 ``(batch, seq)`` id array and a
        boolean mask of the same shape (or None) — what the graph and the
        program both assume.  A mask of another width would die as a
        broadcast error inside the attention tile loop."""
        tokens = token_ids(tokens, self.token_emb.num_embeddings)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, seq), got shape {tokens.shape}")
        seq = tokens.shape[1]
        if seq > self.config.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len {self.config.max_len}")
        if mask is not None:
            mask = np.asarray(mask)
            if mask.dtype != np.bool_ or mask.shape != tokens.shape:
                raise ValueError(
                    f"mask must be a boolean (batch, seq) = {tokens.shape} "
                    f"array, got {mask.dtype} {mask.shape}"
                )
        return tokens, mask

    def _run(self, tokens, mask, classify: bool) -> nn.Tensor:
        tokens, mask = self._validated(tokens, mask)
        if not kernels.fused_enabled():
            return self._graph(tokens, mask, classify)
        if F.is_grad_enabled():
            return self._train_program.get(self).record(tokens, mask, classify)
        # The program touches no process-wide state (the dtype policy
        # included), so threads may forward one model concurrently.
        out = self._program.get(self).run(tokens, mask, classify)
        return nn.Tensor(out, dtype=out.dtype)

    def _graph(self, tokens, mask, classify: bool) -> nn.Tensor:
        """The ``Tensor`` graph of validated ids: both programs' oracle."""
        seq = tokens.shape[1]
        with self._dtype_context():
            x = self.token_emb(tokens) + F.getitem(self.pos_emb, slice(0, seq))
            for block in self.blocks:
                x = block(x, mask=mask)
            x = self.head_norm(x)
            if mask is not None:
                m = mask.astype(x.dtype)[..., None]
                x = x * nn.Tensor(m)
                denom = nn.Tensor(m.sum(axis=1).clip(min=1.0))
                pooled = F.sum_(x, axis=1) / denom
            else:
                pooled = F.mean(x, axis=1)
            return self.head(pooled) if classify else pooled

    def encode(self, tokens: np.ndarray, mask: Optional[np.ndarray] = None) -> nn.Tensor:
        """Return pooled (batch, d_hidden) features for integer token ids."""
        return self._run(tokens, mask, classify=False)

    def forward(self, tokens: np.ndarray, mask: Optional[np.ndarray] = None) -> nn.Tensor:
        """Return class logits of shape (batch, n_classes)."""
        return self._run(tokens, mask, classify=True)


def _build(config: ModelConfig, layout) -> EncoderClassifier:
    """The classifier whose blocks are ``layout``'s ``(mixing,
    butterfly_ffn)`` pairs, in order (:func:`~repro.models.blocks.block_layout`),
    drawn from one RNG seeded by ``config.seed``."""
    with config.dtype_context():
        rng = np.random.default_rng(config.seed)
        blocks = [
            Block(config.d_hidden, config.n_heads, config.r_ffn,
                  mixing=mixing, butterfly_ffn=butterfly_ffn, rng=rng)
            for mixing, butterfly_ffn in layout
        ]
        return EncoderClassifier(config, blocks, rng)


def build_transformer(config: ModelConfig) -> EncoderClassifier:
    """Vanilla post-LN Transformer encoder (dense attention + dense FFN)."""
    return _build(config, block_layout(0, config.n_total, butterfly=False))


def build_fnet(config: ModelConfig) -> EncoderClassifier:
    """FNet: every block uses Fourier mixing with a dense FFN."""
    return _build(config, block_layout(config.n_total, 0, butterfly=False))


def build_fabnet(config: ModelConfig) -> EncoderClassifier:
    """FABNet: ``n_fbfly`` FBfly blocks followed by ``n_abfly`` ABfly blocks."""
    return _build(config, block_layout(config.n_fbfly, config.n_abfly))


def build_hybrid_transformer(config: ModelConfig, n_compressed: int) -> EncoderClassifier:
    """Transformer with the *last* ``n_compressed`` blocks replaced by FBfly.

    This is the Figure 16 experiment: compressing a 6-layer Transformer
    starting from the last block.
    """
    if not 0 <= n_compressed <= config.n_total:
        raise ValueError(
            f"n_compressed={n_compressed} out of range [0, {config.n_total}]"
        )
    dense = block_layout(0, config.n_total - n_compressed, butterfly=False)
    return _build(config, dense + block_layout(n_compressed, 0))


MODEL_BUILDERS = {
    "transformer": build_transformer,
    "fnet": build_fnet,
    "fabnet": build_fabnet,
}


def build_model(name: str, config: ModelConfig) -> EncoderClassifier:
    """Build a model by name ('transformer', 'fnet', 'fabnet')."""
    try:
        return MODEL_BUILDERS[name](config)
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")


class DualEncoderClassifier(nn.Module):
    """Two-tower model for the Retrieval task (paper's LRA-Retrieval).

    Both documents are encoded with a shared encoder; the pooled features
    are combined as ``[h1, h2, h1*h2, h1-h2]`` and classified by a small
    MLP, following the standard LRA dual-encoder recipe.
    """

    def __init__(self, encoder: EncoderClassifier) -> None:
        super().__init__()
        self.encoder = encoder
        d = encoder.config.d_hidden
        rng = np.random.default_rng(encoder.config.seed + 1)
        # Build the head under the encoder's dtype policy so the whole
        # two-tower model is uniform-precision.
        with encoder.config.dtype_context():
            self.fc = nn.Linear(4 * d, d, rng=rng)
            self.out = nn.Linear(d, encoder.config.n_classes, rng=rng)

    def forward(self, tokens_pair: np.ndarray) -> nn.Tensor:
        """``tokens_pair`` has shape (batch, 2, seq)."""
        tokens_pair = np.asarray(tokens_pair)  # encode validates the ids
        if tokens_pair.ndim != 3 or tokens_pair.shape[1] != 2:
            raise ValueError(
                f"expected (batch, 2, seq) token pairs, got {tokens_pair.shape}"
            )
        with self.encoder._dtype_context():
            h1 = self.encoder.encode(tokens_pair[:, 0])
            h2 = self.encoder.encode(tokens_pair[:, 1])
            feats = F.concat([h1, h2, h1 * h2, h1 - h2], axis=-1)
            return self.out(F.gelu(self.fc(feats)))

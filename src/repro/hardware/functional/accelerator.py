"""Functional model of the complete adaptable butterfly accelerator.

Executes a FABNet :class:`~repro.models.encoder.EncoderClassifier`
layer-by-layer on the functional engines:

* butterfly linear layers (Q/K/V/O projections and FFN) on the
  :class:`ButterflyEngine` in butterfly mode;
* Fourier (FBfly) mixing as two 1D FFT passes on the *same* engine in
  FFT mode;
* attention score/context matrix multiplies on the
  :class:`AttentionProcessor`;
* shortcut addition, layer normalization and GELU on the
  :class:`PostProcessor`.

Embedding lookup and the small classifier head run on the host, as in the
paper's system (the accelerator covers the encoder blocks, which dominate
compute).  The result matches the software model to float64 rounding —
this is the reproduction of the paper's Appendix C RTL-vs-PyTorch
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ...models.blocks import EncoderBlock, FeedForward
from ...models.encoder import EncoderClassifier
from ...nn.attention import MultiHeadAttention
from ...nn.butterfly_layer import ButterflyLinear
from ..config import AcceleratorConfig
from .attention_engine import AttentionProcessor
from .engine import ButterflyEngine, ButterflyLinearExecutor
from .postproc import PostProcessor


@dataclass
class AcceleratorTrace:
    """Aggregate operation counts from one forward pass."""

    butterfly_pair_ops: int = 0
    fft_pair_ops: int = 0
    bank_conflicts: int = 0
    qk_macs: int = 0
    sv_macs: int = 0


class ButterflyAccelerator:
    """Run FABNet encoder blocks on the functional hardware engines."""

    def __init__(self, config: Optional[AcceleratorConfig] = None) -> None:
        self.config = config or AcceleratorConfig()
        self.engine = ButterflyEngine(pbu=self.config.pbu)
        self.executor = ButterflyLinearExecutor(self.engine)
        pqk = max(1, self.config.pqk)
        psv = max(1, self.config.psv)
        self.attention = AttentionProcessor(max(1, self.config.pae), pqk, psv)
        self.postp = PostProcessor()
        self.trace = AcceleratorTrace()

    # ------------------------------------------------------------------
    def _on_engine(self, run, *args) -> Tuple[np.ndarray, int]:
        """``run(*args)`` plus the pair ops every engine invocation inside
        it took (one per layer, two per 2D FFT); bank conflicts go to the
        trace."""
        total = self.engine.cumulative_stats
        pair_ops, conflicts = total.pair_ops, total.bank_conflicts
        out = run(*args)
        self.trace.bank_conflicts += total.bank_conflicts - conflicts
        return out, total.pair_ops - pair_ops

    def _run_butterfly_linear(self, layer: ButterflyLinear, x: np.ndarray) -> np.ndarray:
        """x: (rows, in_features) -> (rows, out_features)."""
        out, pair_ops = self._on_engine(self.executor.forward, layer, x)
        self.trace.butterfly_pair_ops += pair_ops
        return out

    def _run_ffn(self, ffn: FeedForward, x: np.ndarray) -> np.ndarray:
        if not isinstance(ffn.fc1, ButterflyLinear):
            raise TypeError(
                "the butterfly accelerator only executes butterfly FFNs; "
                "dense layers belong to the baseline design"
            )
        hidden = self._run_butterfly_linear(ffn.fc1, x)
        hidden = self.postp.gelu(hidden)
        return self._run_butterfly_linear(ffn.fc2, hidden)

    def _run_fourier_mixing(self, x: np.ndarray) -> np.ndarray:
        """x: (seq, d) -> Re(FFT2(x)) via two engine FFT passes."""
        out, pair_ops = self._on_engine(self.engine.run_fft2, x)
        self.trace.fft_pair_ops += pair_ops
        return out.real

    def _run_attention(self, attn: MultiHeadAttention, x: np.ndarray) -> np.ndarray:
        """x: (seq, d) through butterfly projections + attention engines."""
        if not attn.butterfly:
            raise TypeError(
                "the butterfly accelerator only executes ABfly attention "
                "(butterfly Q/K/V/O projections)"
            )
        seq, d = x.shape
        heads, d_head = attn.n_heads, attn.d_head
        # The paper's reordered schedule (Fig. 14): K and V first, then Q.
        k = self._run_butterfly_linear(attn.k_proj, x)
        v = self._run_butterfly_linear(attn.v_proj, x)
        q = self._run_butterfly_linear(attn.q_proj, x)

        def split(m: np.ndarray) -> np.ndarray:
            return m.reshape(seq, heads, d_head).transpose(1, 0, 2)

        context = self.attention.attend_heads(split(q), split(k), split(v))
        for eng in self.attention.engines:
            self.trace.qk_macs += eng.qk.stats.qk_macs
            self.trace.sv_macs += eng.sv.stats.sv_macs
            eng.qk.stats.qk_macs = 0
            eng.sv.stats.sv_macs = 0
        merged = context.transpose(1, 0, 2).reshape(seq, d)
        return self._run_butterfly_linear(attn.out_proj, merged)

    # ------------------------------------------------------------------
    def run_block(self, block: EncoderBlock, x: np.ndarray) -> np.ndarray:
        """Execute one encoder block on (seq, d) activations."""
        if block.mixing_kind == "fourier":
            mixed = self._run_fourier_mixing(x)
        elif block.mixing_kind == "butterfly_attention":
            mixed = self._run_attention(block.mixer, x)
        else:
            raise TypeError(
                f"block mixing {block.mixing_kind!r} is not executable on the "
                "butterfly accelerator (vanilla attention needs the baseline)"
            )
        x = self.postp.layer_norm(
            self.postp.shortcut_add(mixed, x),
            block.norm1.gamma.data,
            block.norm1.beta.data,
        )
        ffn_out = self._run_ffn(block.ffn, x)
        x = self.postp.layer_norm(
            self.postp.shortcut_add(ffn_out, x),
            block.norm2.gamma.data,
            block.norm2.beta.data,
        )
        return x

    def run_encoder(self, model: EncoderClassifier, tokens: np.ndarray) -> np.ndarray:
        """Full forward pass; returns logits identical to ``model(tokens)``.

        Embeddings and the classification head run on the host; all
        encoder blocks run on the accelerator engines.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, seq), got {tokens.shape}")
        seq = tokens.shape[1]
        x = model.token_emb.weight.data[tokens] + model.pos_emb.data[:seq]
        outputs = []
        for sample in x:
            h = sample
            for block in model.blocks:
                h = self.run_block(block, h)
            outputs.append(h)
        h = np.stack(outputs)
        h = self.postp.layer_norm(
            h, model.head_norm.gamma.data, model.head_norm.beta.data
        )
        pooled = h[:, 0] if model.config.pooling == "cls" else h.mean(axis=1)
        return pooled @ model.head.weight.data.T + model.head.bias.data

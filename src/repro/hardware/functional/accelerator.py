"""Functional model of the complete adaptable butterfly accelerator.

The accelerator runs what its control stream says, and nothing else:
:meth:`ButterflyAccelerator.run` replays a compiled
:class:`~repro.hardware.isa.Program` one instruction at a time, and that
replay is the simulator's only walk of a model.

* CONFIG_BFLY / CONFIG_FFT switch the Butterfly Engine's mode; an EXEC
  without a CONFIG of its mode raises, as the sequencer would lock up;
* EXEC_BFLY runs a butterfly linear layer (Q/K/V/O projection or FFN) on
  the :class:`ButterflyEngine` in butterfly mode;
* EXEC_FFT2 runs Fourier (FBfly) mixing as two 1D FFT passes on the
  *same* engine in FFT mode;
* EXEC_ATTN runs the attention score/context matrix multiplies on the
  :class:`AttentionProcessor`;
* GELU and ADD_NORM (shortcut addition + layer normalization) run on the
  :class:`PostProcessor`; LOAD / STORE move nothing the replay's buffers
  do not already hold.

Embedding lookup and the small classifier head run on the host, as in the
paper's system (the accelerator covers the encoder blocks, which dominate
compute).  The result matches the software model to float64 rounding —
this is the reproduction of the paper's Appendix C RTL-vs-PyTorch
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ...models.blocks import Block
from ...models.encoder import EncoderClassifier
from ...nn.attention import MultiHeadAttention
from ...nn.butterfly_layer import ButterflyLinear
from ..config import AcceleratorConfig
from ..isa import Opcode, Program, compile_model
from .attention_engine import AttentionProcessor
from .engine import ButterflyEngine, ButterflyLinearExecutor
from .postproc import PostProcessor

#: EXEC_BFLY operands whose output fills an attention buffer rather than
#: the activation buffer.
_QKV = ("q_proj", "k_proj", "v_proj")


def _layer(block: Block, tag: str) -> ButterflyLinear:
    """The butterfly layer an EXEC_BFLY operand names in ``block``."""
    if tag == "ffn1":
        return block.ffn.fc1
    if tag == "ffn2":
        return block.ffn.fc2
    return getattr(block.mixer, tag)


@dataclass
class AcceleratorTrace:
    """Aggregate operation counts from one forward pass."""

    butterfly_pair_ops: int = 0
    fft_pair_ops: int = 0
    bank_conflicts: int = 0
    qk_macs: int = 0
    sv_macs: int = 0


class ButterflyAccelerator:
    """Replay compiled instruction streams on the functional hardware engines."""

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

    def _run(self, program: Program, x: np.ndarray) -> np.ndarray:
        """One sample's (seq, d) activations through the stream.

        ``x`` is the activation buffer, ``shortcut`` the PostP's copy of
        the current sub-layer's input (the last ADD_NORM's output) and
        ``qkv`` the attention buffers the Q/K/V projections fill.
        """
        blocks = program.model.blocks
        shortcut, qkv, mode = x, {}, None
        for inst in program.instructions:
            op = inst.opcode
            if op is Opcode.EXEC_BFLY:
                if mode is not Opcode.CONFIG_BFLY:
                    raise RuntimeError("EXEC_BFLY without CONFIG_BFLY")
                layer = _layer(blocks[inst.block], inst.operand)
                out, pair_ops = self._on_engine(self.executor.forward, layer, x)
                self.trace.butterfly_pair_ops += pair_ops
                if inst.operand in _QKV:
                    qkv[inst.operand] = out
                else:
                    x = out
            elif op is Opcode.CONFIG_BFLY or op is Opcode.CONFIG_FFT:
                mode = op
            elif op is Opcode.ADD_NORM:
                block = blocks[inst.block]
                norm = block.norm1 if inst.operand == "mix" else block.norm2
                x = shortcut = self.postp.layer_norm(
                    self.postp.shortcut_add(x, shortcut),
                    norm.gamma.data, norm.beta.data,
                )
            elif op is Opcode.GELU:
                x = self.postp.gelu(x)
            elif op is Opcode.EXEC_FFT2:
                if mode is not Opcode.CONFIG_FFT:
                    raise RuntimeError("EXEC_FFT2 without CONFIG_FFT")
                out, pair_ops = self._on_engine(self.engine.run_fft2, x)
                self.trace.fft_pair_ops += pair_ops
                x = out.real
            elif op is Opcode.EXEC_ATTN:
                x = self._attend(blocks[inst.block].mixer, qkv)
        return x

    def _attend(self, attn: MultiHeadAttention,
                qkv: Dict[str, np.ndarray]) -> np.ndarray:
        """The attention buffers through the QK/SV units: (seq, d) context."""
        seq = qkv["q_proj"].shape[0]

        def split(m: np.ndarray) -> np.ndarray:
            return m.reshape(seq, attn.n_heads, attn.d_head).transpose(1, 0, 2)

        context = self.attention.attend_heads(
            split(qkv["q_proj"]), split(qkv["k_proj"]), split(qkv["v_proj"])
        )
        for eng in self.attention.engines:
            self.trace.qk_macs += eng.qk.stats.qk_macs
            self.trace.sv_macs += eng.sv.stats.sv_macs
            eng.qk.stats.qk_macs = 0
            eng.sv.stats.sv_macs = 0
        return context.transpose(1, 0, 2).reshape(seq, attn.d_model)

    # ------------------------------------------------------------------
    def run(self, program: Program, tokens: np.ndarray) -> np.ndarray:
        """Replay ``program`` once per sample of ``tokens`` (batch, seq);
        returns the logits of the model it was compiled from.

        Embeddings and the classification head run on the host; every
        encoder block runs on the engines, as the stream orders.
        """
        model = program.model
        tokens, _ = model._validated(tokens, None)  # the ids model() accepts
        x = model.token_emb.weight.data[tokens] + model.pos_emb.data[:tokens.shape[1]]
        h = np.stack([self._run(program, sample) for sample in x])
        h = self.postp.layer_norm(
            h, model.head_norm.gamma.data, model.head_norm.beta.data
        )
        return h.mean(axis=1) @ model.head.weight.data.T + model.head.bias.data

    def run_encoder(self, model: EncoderClassifier, tokens: np.ndarray) -> np.ndarray:
        """Full forward pass; returns logits identical to ``model(tokens)``."""
        return self.run(compile_model(model), tokens)

"""What the programs share: compile, stamp, invalidate, cache.

A model's fused forward runs as a flat program of kernel calls on plain
arrays (:mod:`~repro.models.decode_program` for a decoder's incremental
steps and training, :mod:`~repro.models.encode_program` for an encoder's
forward and training).  Every program is compiled the same way, by
:meth:`InferenceProgram.__init__`: the embeddings, then every block
through one :meth:`InferenceProgram._block` (a decoder's blocks are the
encoders' :class:`~repro.models.blocks.Block`, causal), then the model's
end, the norm and head that :attr:`InferenceProgram.END` names.  The
programs differ only in how they run and in the hooks below.  They are
built, keyed and invalidated the same way — like
:class:`~repro.kernels.FrozenLadderCache`:

* compiling reads each parameter through :meth:`InferenceProgram._array`,
  which records its ``(version, data)``, and each projection layer
  through :meth:`InferenceProgram._projection`, which records the slot it
  was found in (and, for a stored dense layer, the packed weight, scales
  and bias its closure captured);
* a program holds nothing that holds it: a slot's owner (the model
  itself, for the ``lm_head`` / ``head`` slot) is held weakly, so a
  dropped model is freed at once, not at the next cyclic collection;
* :meth:`InferenceProgram.current` holds while none of them moved, and
  :class:`ProgramCache` rebuilds the program when it does not — after an
  optimizer step, ``load_state_dict``, a ``.data`` rebind (a dtype switch
  is one), a layer swap (quantization) or a stored layer's arrays being
  rebound, and after nothing else.  One sweep per call.

A projection calls its layer's inference operator directly (a butterfly
layer's ``FrozenLadder.apply``).  Adding a layer kind means one branch in
:meth:`InferenceProgram._projection`.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import nn
from ..kernels import gelu_forward, linear_act_forward
from ..kernels import quant as QK

#: ``projection(x, out=None)``: ``act(layer(x))`` as an owned array, or
#: in ``out`` where the layer's kernel can write there (fp layers; a
#: stored-weight layer's kernel owns its output and ignores ``out``).
Projection = Callable[..., np.ndarray]
Norm = Tuple[np.ndarray, np.ndarray, float]


class _Attention(NamedTuple):
    q_proj: Projection
    k_proj: Projection
    v_proj: Projection
    out_proj: Projection
    n_heads: int
    d_head: int
    causal: bool


class _Block(NamedTuple):
    attention: Optional[_Attention]  # None: Fourier mixing
    norm1: Norm
    fc1: Projection  # bias + GELU included
    fc2: Projection
    norm2: Norm
    d_ffn: int


class InferenceProgram:
    """A model's compiled forward, valid while :meth:`current` holds.

    Compiles the embeddings, every block (:meth:`_block`) and the end
    :attr:`END` names, each kept as ``_<name>`` (``_head_norm`` /
    ``_head``, or ``_final_norm`` / ``_lm_head``).  Activations take the
    parameters' dtype (``self.dtype``), never the ambient
    :func:`~repro.kernels.default_dtype` policy.
    """

    #: The model's norm and head after the last block: an encoder's.
    END = ("head_norm", "head")

    def __init__(self, model) -> None:
        self._stamps: List[tuple] = []  # (parameter, version, data) read
        # (weakref to the owner, attribute, the object read there)
        self._slots: List[tuple] = []
        self._token_emb = self._array(model.token_emb.weight)
        self._pos_emb = self._array(model.pos_emb)
        self.dtype = self._token_emb.dtype
        self._blocks = [self._block(block) for block in model.blocks]
        norm, head = self.END
        setattr(self, f"_{norm}", self._norm(getattr(model, norm)))
        setattr(self, f"_{head}", self._projection(model, head))

    def _block(self, block) -> _Block:
        """A :class:`~repro.models.blocks.Block`'s layers: its attention
        (None for Fourier mixing), norms and FFN."""
        mixer = block.mixer
        return _Block(
            None if block.mixing_kind == "fourier" else _Attention(
                self._projection(mixer, "q_proj"),
                self._projection(mixer, "k_proj"),
                self._projection(mixer, "v_proj"),
                self._projection(mixer, "out_proj"),
                mixer.n_heads,
                mixer.d_head,
                mixer.causal,
            ),
            self._norm(block.norm1),
            self._projection(block.ffn, "fc1", activation="gelu"),
            self._projection(block.ffn, "fc2"),
            self._norm(block.norm2),
            block.ffn.fc1.out_features,
        )

    def _array(self, param) -> np.ndarray:
        self._stamps.append((param, param.version, param.data))
        return param.data

    def _norm(self, norm) -> Norm:
        return self._array(norm.gamma), self._array(norm.beta), norm.eps

    def _slot(self, owner, name: str):
        """``owner.name``, recorded for :meth:`current`.  The owner is held
        weakly: it may be the model, whose cache holds this program."""
        layer = getattr(owner, name)
        self._slots.append((weakref.ref(owner), name, layer))
        return layer

    def _projection(self, owner, name: str, activation: str = "identity") -> Projection:
        """``x -> act(layer(x))`` through the layer's own inference operator."""
        layer = self._slot(owner, name)
        if isinstance(layer, nn.Linear):
            weight = layer.weight  # read live: cached_transpose keys W^T on it
            bias = None if layer.bias is None else self._array(layer.bias)

            def dense(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
                return linear_act_forward(
                    x, weight, bias, activation, need_ctx=False, out=out)[0]

            return dense
        if isinstance(layer, nn.ButterflyLinear):
            for stage in layer.stage_parameters():
                self._array(stage)  # stamped: the ladder is built from them
            ladder = layer.frozen_ladder(self.dtype)
            bias = None if layer.bias is None else self._array(layer.bias)

            def apply(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
                y = ladder.apply(x, out)  # the fault point and span are its own
                if bias is not None:
                    y += bias  # the ladder's output is an owned array, or out
                return y

        elif isinstance(layer, nn.QuantizedLinear):
            # Captured, so stamped by identity: rebinding one rebuilds.
            weight, scales, bias = (
                self._slot(layer, held) for held in ("q_weight", "scales", "bias"))

            def apply(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
                return QK.quantized_linear(x, weight, scales, bias)

        else:
            raise TypeError(
                f"no inference operator for {type(layer).__name__} ({name})"
            )
        if activation == "identity":
            return apply

        def activated(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
            y = apply(x, out)
            # In place where the layer wrote the caller's buffer; a few
            # rows of decode are cheaper through the allocating chain.
            return gelu_forward(
                y, need_ctx=False, out=y if y is out else None)[0]

        return activated

    def current(self) -> bool:
        """Whether everything the program was built from is unchanged."""
        for param, version, data in self._stamps:
            if param.version != version or param.data is not data:
                return False
        for owner, name, layer in self._slots:
            owner = owner()
            if owner is None or getattr(owner, name) is not layer:
                return False
        return True


class ProgramCache:
    """One model's inference program, rebuilt only when what it was built
    from changes.

    The model keeps one of these and asks it for the program on every
    inference call.  Copies and pickles start empty: the program is
    derived state — closures over the source model's layers — so a
    ``deepcopy`` (``quantize_for_inference``) or a pickle (a ``spawn``
    cluster worker) must compile its own.
    """

    __slots__ = ("_compile", "_program", "builds")

    def __init__(self, compile: Callable[..., InferenceProgram]) -> None:
        self._compile = compile  # the program class: compile(model)
        self._program = None
        self.builds = 0  # programs compiled so far (tests count these)

    def __reduce__(self):
        return (ProgramCache, (self._compile,))

    def get(self, model) -> InferenceProgram:
        program = self._program
        if program is None or not program.current():
            program = self._program = self._compile(model)
            self.builds += 1
        return program

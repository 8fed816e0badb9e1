"""An encoder's forward as one flat program over owned buffers.

The paper's engine is configured once per layer and then streams vectors
through buffers it owns.  :class:`EncodeProgram` does that for an
:class:`~repro.models.encoder.EncoderClassifier`: under ``no_grad``, with
the fused kernels on, ``encode`` / ``forward`` run

    embedding gather + positions -> per block { Fourier mixing, or
    Q/K/V projections with heads as strided views ->
    ``attention_forward``, writing the heads merged -> output projection;
    ``residual_layer_norm_forward``; FFN with bias + GELU in the first
    projection's buffer; ``residual_layer_norm_forward`` } -> head norm
    -> pooling

on plain arrays, every activation written through the kernels' ``out=``
into a workspace the program owns.  With grad enabled,
:class:`TrainProgram` runs the same forward with its contexts kept and
records it as one ``Tensor`` node, whose VJP walks the blocks in reverse
through the kernels' VJPs; the decoder's training program
(:class:`~repro.models.decode_program.LMTrainProgram`) is the same walk
with causal attention and its own end.  The ``Tensor`` graph
(``EncoderClassifier._graph``) is the path under
:func:`~repro.kernels.use_fused` ``(False)`` and both programs' oracle.

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
  ``apply`` owns its output, so those activations are allocated.  They
  are inference-only: :class:`TrainProgram` refuses them.

A training step's arrays (activations, contexts, the VJP's outputs,
parameter gradients) are :data:`~repro.kernels.pool.STEP`'s, which
``Trainer.fit`` holds (or any ``STEP.held()`` block); outside one they
are allocated.  A recorded
forward takes the lowest free *slot* and ``(program, slot, layer)``
tags, so two live forwards (a dual encoder's towers) never share a
buffer; the slot frees when its node's VJP has run or the node is
dropped.  What a call returns is allocated.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import NamedTuple, Optional

import numpy as np

from .. import nn
from ..kernels import (
    ResidualLNContext,
    attention_forward,
    attention_vjp,
    butterfly_apply,
    butterfly_apply_vjp,
    embedding_grad,
    fourier_mix,
    gelu_forward,
    gelu_vjp,
    linear_act_forward,
    linear_act_vjp,
    residual_layer_norm_forward,
    residual_layer_norm_vjp,
)
from ..kernels.pool import STEP, ScratchPool, fresh
from ..nn.tensor import _make_result, layer_norm_forward
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
    causal: bool


class _Block(NamedTuple):
    attention: Optional[_Attention]  # None: Fourier mixing
    norm1: Norm
    fc1: Projection  # bias + GELU included
    fc2: Projection
    norm2: Norm
    d_ffn: int


def _mean(y: np.ndarray, mask: Optional[np.ndarray]):
    """The (masked) mean of ``y`` over its sequence axis, writing masked
    rows to 0 in place, and ``(weights, counts)`` (None without a mask)."""
    if mask is None:
        pooled = y.sum(axis=1)
        pooled *= y.dtype.type(1.0 / y.shape[1])
        return pooled, None
    weights = mask.astype(y.dtype)[..., None]
    y *= weights
    counts = weights.sum(axis=1).clip(min=1.0)
    return y.sum(axis=1) / counts, (weights, counts)


class _Layout(InferenceProgram):
    """A model's embeddings and blocks, and an encoder's end, as its
    program's projection and norm hooks compile them."""

    def __init__(self, model) -> None:
        super().__init__()
        self._token_emb = self._array(model.token_emb.weight)
        self._pos_emb = self._array(model.pos_emb)
        self.dtype = self._token_emb.dtype
        self._compile(model)

    def _compile(self, model) -> None:
        """What follows the embeddings: the blocks and the model's end."""
        self._blocks = [
            self._block(block, None if block.mixing_kind == "fourier" else block.mixer)
            for block in model.blocks
        ]
        self._head_norm = self._norm(model.head_norm)
        self._head = self._projection(model, "head")
        self._cls = model.config.pooling == "cls"

    def _block(self, block, attention) -> _Block:
        """``block``'s layers; ``attention`` is its attention layer, or
        None for Fourier mixing."""
        return _Block(
            None if attention is None else _Attention(
                self._projection(attention, "q_proj"),
                self._projection(attention, "k_proj"),
                self._projection(attention, "v_proj"),
                self._projection(attention, "out_proj"),
                attention.n_heads,
                attention.d_head,
                attention.causal,
            ),
            self._norm(block.norm1),
            self._projection(block.ffn, "fc1", activation="gelu"),
            self._projection(block.ffn, "fc2"),
            self._norm(block.norm2),
            block.ffn.fc1.out_features,
        )


class EncodeProgram(_Layout):
    """The compiled forward of one encoder, valid while :meth:`current`
    holds."""

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
        return _mean(x, mask)[0]

    def _attend(self, attention: _Attention, x: np.ndarray,
                mask: Optional[np.ndarray]) -> np.ndarray:
        q_proj, k_proj, v_proj, out_proj, n_heads, d_head, _ = attention
        batch, seq, _ = hidden = x.shape
        dtype = self.dtype
        take = WORKSPACE.take
        heads = (batch, seq, n_heads, d_head)
        # The FFN's wide buffer is idle during attention: the three
        # projections and the context take a quarter each (r_ffn = 4 is
        # an exact fit).  Heads are strided views of a projection's
        # output, and the context is written with its heads merged.
        wide = take("wide", (4,) + hidden, dtype)
        q, k, v = (
            proj(x, part).reshape(heads).transpose(0, 2, 1, 3)
            for proj, part in zip((q_proj, k_proj, v_proj), wide)
        )
        merged = wide[3].reshape(heads)
        attention_forward(
            q, k, v, key_mask=mask, scale=1.0 / math.sqrt(d_head),
            need_ctx=False, out=merged.transpose(0, 2, 1, 3))
        return out_proj(merged.reshape(hidden), take("sub", hidden, dtype))


def _accumulate(param, grad: np.ndarray) -> None:
    """Add ``grad`` into ``param.grad``, a :data:`STEP` buffer of its own."""
    if param.grad is None:
        param.grad = STEP.take(("grad", id(param)), grad.shape, grad.dtype)
        np.copyto(param.grad, grad)
    else:
        param.grad += grad


def _project(layer, x: np.ndarray, take, gelu: bool = False):
    """``act(layer(x))`` and the context :func:`_project_vjp` reads."""
    bias = None if layer.bias is None else layer.bias.data
    if isinstance(layer, nn.Linear):
        y, ctx = linear_act_forward(x, layer.weight, bias, take=take)
    else:
        y, ctx = butterfly_apply(
            x, [stage.data for stage in layer.stage_parameters()], layer.halves,
            in_features=layer.in_features, out_features=layer.out_features,
            take=take)
        if bias is not None:
            y += bias  # no context keeps the ladder's output
    if not gelu:
        return y, (ctx, None, None, take)
    act, s = gelu_forward(y, take=take)
    return act, (ctx, y, s, take)


def _project_vjp(layer, grad: np.ndarray, ctx) -> np.ndarray:
    """The input's gradient of :func:`_project`; the layer's parameters
    accumulate theirs."""
    ctx, z, s, take = ctx
    if z is not None:
        grad = gelu_vjp(grad, z, s, take)
    if isinstance(layer, nn.Linear):
        gx, *grads = linear_act_vjp(grad, ctx)
        params = [layer.weight, layer.bias]
    else:
        gx, grads = butterfly_apply_vjp(grad, ctx)
        params = layer.stage_parameters() + [layer.bias]
        grads.append(grad.sum(axis=tuple(range(grad.ndim - 1))))
    for param, g in zip(params, grads):
        if param is not None:
            _accumulate(param, g)
    return gx


def _close(norm, x: np.ndarray, sub: np.ndarray, take):
    """``norm(x + sub)`` and its context."""
    gamma, beta, eps = norm
    return residual_layer_norm_forward(x, sub, gamma.data, beta.data, eps=eps,
                                       take=take)


def _close_vjp(norm, grad: np.ndarray, ctx) -> np.ndarray:
    """The gradient of both of :func:`_close`'s operands (one array)."""
    gx, _, dgamma, dbeta = residual_layer_norm_vjp(grad, ctx)
    _accumulate(norm[0], dgamma)
    _accumulate(norm[1], dbeta)
    return gx


class _Tape:
    """One recorded forward's contexts; dropping it frees its slot."""


class TrainProgram(_Layout):
    """The encoder's forward with its contexts kept, recorded as one
    ``Tensor`` node whose VJP walks the blocks in reverse.  It reads every
    parameter live, so only a layer swap rebuilds it.  Its slots are the
    program's: one thread trains a model (grad mode is process-wide).

    The embeddings and the block walk are every model's; what follows the
    last block is :meth:`_end` / :meth:`_end_vjp`, which a subclass for
    another model replaces along with :meth:`_compile`."""

    def __init__(self, model) -> None:
        super().__init__(model)
        self._params = tuple(model.parameters())
        self._live = set()  # slots of the forwards whose VJP may still run

    def _array(self, param):
        return param  # read at every call

    def _norm(self, norm):
        return norm.gamma, norm.beta, norm.eps

    def _projection(self, owner, name: str, activation: str = "identity"):
        layer = getattr(owner, name)
        if not isinstance(layer, (nn.Linear, nn.ButterflyLinear)):
            raise RuntimeError(
                f"{type(layer).__name__} ({name}) is inference-only: run a "
                "stored-weight replica under no_grad"
            )
        self._slots.append((owner, name, layer))
        return layer

    def record(self, tokens: np.ndarray, mask: Optional[np.ndarray],
               classify: bool) -> nn.Tensor:
        """The model's output for validated ids (for an encoder, logits or
        pooled features), as one recorded node over its parameters."""
        tape = _Tape()
        slot = next(i for i in itertools.count() if i not in self._live)
        self._live.add(slot)
        weakref.finalize(tape, self._live.discard, slot)
        tape.take = lambda *layer: STEP.prefixed((id(self), slot) + layer)
        out = self._end(self._forward(tokens, mask, tape), mask, classify, tape)

        def backward(grad: np.ndarray):
            self._backward(self._end_vjp(np.asarray(grad), tape), tape)
            return ()  # the parameters' gradients are accumulated

        return _make_result(out, self._params, backward)

    def _forward(self, tokens, mask, tape) -> np.ndarray:
        """Embeddings and blocks: the last block's output."""
        batch, seq = tokens.shape
        emb = self._token_emb.data
        dtype = emb.dtype
        x = tape.take("emb")("x", (batch, seq, emb.shape[1]), dtype)
        np.take(emb, tokens, axis=0, out=x, mode="clip")  # validated ids
        x += self._pos_emb.data[:seq]
        tape.tokens, tape.blocks = tokens, []
        for i, (attention, norm1, fc1, fc2, norm2, _) in enumerate(self._blocks):
            if attention is None:
                mixed, mix = fourier_mix(x, out=tape.take(i)("mix", x.shape, dtype)), None
            else:
                mixed, mix = self._attend(attention, x, mask, tape.take, i)
            y, n1 = _close(norm1, x, mixed, tape.take(i, "norm1"))
            wide, f1 = _project(fc1, y, tape.take(i, "fc1"), gelu=True)
            sub, f2 = _project(fc2, wide, tape.take(i, "fc2"))
            x, n2 = _close(norm2, y, sub, tape.take(i, "norm2"))
            tape.blocks.append((mix, n1, f1, f2, n2))
        return x

    def _backward(self, gx: np.ndarray, tape: _Tape) -> None:
        """The blocks and embeddings in reverse, from the gradient of
        :meth:`_forward`'s output."""
        for i in range(len(self._blocks) - 1, -1, -1):
            attention, norm1, fc1, fc2, norm2, _ = self._blocks[i]
            mix, n1, f1, f2, n2 = tape.blocks[i]
            gy = _close_vjp(norm2, gx, n2)
            dy = _project_vjp(fc1, _project_vjp(fc2, gy, f2), f1)
            dy += gy
            gx = _close_vjp(norm1, dy, n1)
            if attention is None:  # the mixing is its own adjoint
                dx = fourier_mix(gx, out=tape.take(i)("dmix", gx.shape, gx.dtype))
            else:
                dx = self._attend_vjp(attention, gx, mix)
            dx += gx
            gx = dx
        take = tape.take("emb")
        _accumulate(self._token_emb, embedding_grad(
            tape.tokens, gx, self._token_emb.shape[0], take))
        seq = tape.tokens.shape[1]
        dpos = take("dpos", self._pos_emb.shape, gx.dtype)
        dpos[seq:] = 0
        np.add.reduce(gx, axis=0, out=dpos[:seq])
        _accumulate(self._pos_emb, dpos)

    def _end(self, x, mask, classify, tape) -> np.ndarray:
        """Head norm, pooling and (with ``classify``) the classifier."""
        gamma, beta, eps = self._head_norm
        tape.weights = None
        if self._cls:  # the norm is per row: only the pooled row needs it
            pooled, normed, inv = layer_norm_forward(x[:, 0], gamma.data, beta.data, eps)
        else:
            y, normed, inv = layer_norm_forward(x, gamma.data, beta.data, eps,
                                                take=tape.take("head"))
            pooled, tape.weights = _mean(y, mask)  # no context keeps y
        tape.norm = ResidualLNContext(normed, inv, gamma.data, tape.take("head"))
        tape.head = None
        if not classify:
            return pooled
        logits, tape.head = _project(self._head, pooled, fresh)
        return logits

    def _end_vjp(self, g: np.ndarray, tape: _Tape) -> np.ndarray:
        if tape.head is not None:
            g = _project_vjp(self._head, g, tape.head)
        hidden = tape.tokens.shape + tape.norm.normed.shape[-1:]
        take = tape.take("head")
        if self._cls:
            gx = take("dx", hidden, g.dtype)
            gx[...] = 0
            gx[:, 0] = _close_vjp(self._head_norm, g, tape.norm)
            return gx
        gy = take("dy", hidden, g.dtype)
        if tape.weights is None:
            np.copyto(gy, (g * g.dtype.type(1.0 / hidden[1]))[:, None, :])
        else:
            np.copyto(gy, (g / tape.weights[1])[:, None, :])
            gy *= tape.weights[0]
        return _close_vjp(self._head_norm, gy, tape.norm)

    def _attend(self, attention: _Attention, x: np.ndarray,
                mask: Optional[np.ndarray], take, i: int):
        q_proj, k_proj, v_proj, out_proj, n_heads, d_head, _ = attention
        heads = x.shape[:2] + (n_heads, d_head)
        (q, qc), (k, kc), (v, vc) = (
            _project(layer, x, take(i, name))
            for layer, name in ((q_proj, "q"), (k_proj, "k"), (v_proj, "v")))
        merged = take(i)("merged", heads, x.dtype)
        _, ac = attention_forward(
            *(a.reshape(heads).transpose(0, 2, 1, 3) for a in (q, k, v)),
            causal=attention.causal, key_mask=mask, scale=1.0 / math.sqrt(d_head),
            out=merged.transpose(0, 2, 1, 3), take=take(i))
        out, oc = _project(out_proj, merged.reshape(x.shape), take(i, "o"))
        return out, (qc, kc, vc, ac, oc, take(i))

    def _attend_vjp(self, attention: _Attention, grad: np.ndarray, ctx) -> np.ndarray:
        q_proj, k_proj, v_proj, out_proj, n_heads, d_head, _ = attention
        qc, kc, vc, ac, oc, take = ctx
        heads = grad.shape[:2] + (n_heads, d_head)
        g = _project_vjp(out_proj, grad, oc)
        merged = take("dheads", heads, grad.dtype)  # each projection's in turn
        dx = None
        for layer, gh, pc in zip((q_proj, k_proj, v_proj),
                                 attention_vjp(g.reshape(heads).transpose(0, 2, 1, 3), ac),
                                 (qc, kc, vc)):
            np.copyto(merged, gh.transpose(0, 2, 1, 3))
            gxi = _project_vjp(layer, merged.reshape(grad.shape), pc)
            dx = gxi if dx is None else np.add(dx, gxi, out=dx)
        return dx

"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.models import ModelConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_config():
    """Small power-of-two model config that trains in milliseconds."""
    return ModelConfig(
        vocab_size=32,
        n_classes=4,
        max_len=16,
        d_hidden=16,
        n_heads=2,
        r_ffn=2,
        n_total=2,
        n_abfly=1,
        seed=7,
    )


@pytest.fixture
def store_weight():
    """``(mode, w) -> (codes, scales)``: one 2-D weight in the stored
    format ``mode`` (an entry of ``nn.QUANT_MODES``; int8 is the only
    one)."""
    from repro.kernels import quant as QK

    def store(mode, w):
        if mode == "int8":
            return QK.quantize_per_channel(w)
        raise AssertionError(f"no tier-contract row for storage format {mode!r}")

    return store


def _reference_incremental(model, tokens, cache):
    """The ``Tensor``-graph incremental forward: the byte oracle of the
    decoder's compiled ``DecodeProgram`` (``models/decode_program.py``).

    Module calls, ``Tensor`` wrappers and head split/merge nodes, under
    ``no_grad`` in the model's own dtype — except that a dense layer runs
    the projection kernel the program runs: its ``Tensor`` op is the
    composite ``matmul`` / bias-add graph, whose GEMM sums in another
    order.  Same contract as the program:
    writes the new keys/values at each row's tail, advances ``cache``,
    and returns ``(batch, vocab)`` logits at each row's last new
    position — past the last block's keys/values, a multi-token call
    runs its query side on that position alone.
    """
    import math

    from repro import kernels, nn
    from repro.nn import tensor as F

    tokens = np.asarray(tokens, dtype=np.int64)
    batch, seq = tokens.shape
    lengths = cache.lengths
    positions = lengths[:, None] + np.arange(seq)[None, :]
    rows = np.arange(batch)[:, None]
    last = len(model.blocks) - 1

    def project(layer, x):
        if not isinstance(layer, nn.Linear):
            return layer(x)
        bias = None if layer.bias is None else layer.bias.data
        return nn.Tensor(kernels.linear_act_forward(
            x.data, layer.weight, bias, need_ctx=False)[0])

    with nn.default_dtype(model.token_emb.weight.dtype), nn.no_grad():
        x = model.token_emb(tokens) + F.embedding(model.pos_emb, positions)
        for index, block in enumerate(model.blocks):
            attn, layer_kv = block.mixer, cache.layer(index)
            x_q = (F.getitem(x, (slice(None), slice(-1, None)))
                   if index == last and seq > 1 else x)
            width = x_q.shape[1]
            q = attn._split_heads(project(attn.q_proj, x_q), batch, width)
            k, v = (
                attn._split_heads(project(proj, x), batch, seq)
                for proj in (attn.k_proj, attn.v_proj)
            )
            layer_kv.k[rows, :, positions] = np.swapaxes(k.data, 1, 2)
            layer_kv.v[rows, :, positions] = np.swapaxes(v.data, 1, 2)
            k_all, v_all = layer_kv.view(int(lengths.max()) + seq)
            scale = 1.0 / math.sqrt(attn.d_head)
            if seq == 1:
                context = nn.Tensor(kernels.attention_decode(
                    q.data[:, :, 0], k_all, v_all, lengths=lengths, scale=scale,
                ).reshape(batch, 1, attn.d_model))
            else:
                context = F.scaled_dot_attention(
                    q, nn.Tensor(k_all), nn.Tensor(v_all),
                    causal=True, q_start=lengths + (seq - width), scale=scale,
                )
                context = F.reshape(
                    F.transpose(context, (0, 2, 1, 3)), (batch, width, attn.d_model))
            x = F.residual_layer_norm(
                x_q, project(attn.out_proj, context),
                block.norm1.gamma, block.norm1.beta, eps=block.norm1.eps)
            x = F.residual_layer_norm(
                x, project(block.ffn.fc2, F.gelu(project(block.ffn.fc1, x))),
                block.norm2.gamma, block.norm2.beta, eps=block.norm2.eps)
        logits = project(model.lm_head, model.final_norm(x)).data[:, 0]
    cache.advance(seq)
    return logits


@pytest.fixture
def reference_incremental():
    """``(model, tokens, cache) -> logits``: see :func:`_reference_incremental`."""
    return _reference_incremental


def numeric_gradient(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


@pytest.fixture
def gradcheck():
    """Return a function asserting autograd matches finite differences."""
    from repro.nn import Tensor

    def check(op, *arrays, atol=1e-5, rtol=1e-4):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*tensors)
        loss = (out * out).sum() if out.size > 1 else out
        loss.backward()
        for idx, (tensor, array) in enumerate(zip(tensors, arrays)):
            def scalar(x, idx=idx):
                args = [Tensor(a.copy()) for a in arrays]
                args[idx] = Tensor(x)
                o = op(*args)
                val = (o * o).sum() if o.size > 1 else o
                return float(val.data)

            expected = numeric_gradient(scalar, array)
            assert tensor.grad is not None, f"input {idx} received no gradient"
            np.testing.assert_allclose(
                tensor.grad, expected, atol=atol, rtol=rtol,
                err_msg=f"gradient mismatch for input {idx}",
            )

    return check

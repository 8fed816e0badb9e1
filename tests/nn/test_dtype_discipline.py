"""A float32 model stays float32, end to end.

Under NEP 50 an ``np.float64`` *scalar* is strong: one
``1.0 / np.sqrt(d)`` or ``np.sqrt(2 / np.pi)`` meeting a float32
activation promotes the whole array to float64, and ``Tensor.__init__``
then quietly casts it back — twice the arithmetic, twice the memory
traffic and a copy, with nothing failing.  These tests fail on that:
a spy on :func:`repro.nn.tensor._as_array` must never see a floating
ndarray that is not already the policy dtype, in a forward + backward
and in a ``no_grad`` forward of every model family, and every
parameter gradient must come out float32.

The same holds with *no* dtype context at all, for every model family:
activations take the parameters' dtype, so a bare ``ServingEngine``
over a float32 (or int8-stored) decoder never hands a GEMM a float64
operand, and ``loss.backward()`` on an fp32 encoder leaves fp32
gradients.  It used to be otherwise: ``Tensor.__init__`` coerced every
op result to the ambient policy, ``backward`` seeded its gradient from
it, and neither the engine nor the encoders entered the model's context
— so float32 replicas decoded in float64 (the cause of "fp64 out-decodes
fp32") and an fp32 model trained outside a context got a mix of float64
and float32 gradients.
"""

import numpy as np
import pytest

from repro import nn
from repro.kernels import attention as AK
from repro.kernels import quant as QK
from repro.kernels import backend
from repro.models import (
    DualEncoderClassifier,
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
    build_fabnet,
    build_fnet,
    build_transformer,
)
from repro.nn import tensor as F
from repro.serving import SamplingParams, ServingEngine

CONFIG = ModelConfig(
    vocab_size=32, n_classes=4, max_len=16, d_hidden=16, n_heads=2, r_ffn=2,
    n_total=2, n_abfly=1, seed=7, dtype="float32",
)


def _spy_on_casts(monkeypatch):
    """Floating ndarrays that reach ``_as_array`` in the wrong dtype from
    here on (installed after the model is built: initializers draw
    float64 and cast once, by design)."""
    seen = []
    real = F._as_array

    def spy(value, dtype=None):
        want = F.get_default_dtype() if dtype is None else dtype
        if (isinstance(value, np.ndarray) and value.dtype.kind == "f"
                and value.dtype != want):
            seen.append((value.dtype, value.shape))
        return real(value, dtype)

    monkeypatch.setattr(F, "_as_array", spy)
    return seen


def _assert_float32_grads(model, unused=()):
    wrong = {
        name: getattr(p.grad, "dtype", None)
        for name, p in model.named_parameters()
        if not name.startswith(unused)
        and (p.grad is None or p.grad.dtype != np.float32)
    }
    assert not wrong


@pytest.mark.parametrize("build", [build_fabnet, build_transformer])
def test_encoders_train_and_infer_in_float32(build, monkeypatch, rng):
    model = build(CONFIG)
    casts = _spy_on_casts(monkeypatch)
    tokens = rng.integers(0, CONFIG.vocab_size, size=(3, CONFIG.max_len))
    targets = rng.integers(0, CONFIG.n_classes, size=3)
    with CONFIG.dtype_context():
        logits = model(tokens)
        nn.cross_entropy_logits(logits, targets).backward()
        with nn.no_grad():
            eval_logits = model.eval()(tokens)
    assert logits.dtype == eval_logits.dtype == np.float32
    assert casts == []
    _assert_float32_grads(model)


def _build_pair_classifier(config):
    return DualEncoderClassifier(build_fabnet(config))


@pytest.mark.parametrize("build", [
    build_fabnet, build_fnet, build_transformer, _build_pair_classifier])
def test_encoders_ignore_the_ambient_policy(build, monkeypatch, rng):
    """No dtype context anywhere: an fp32 encoder's forward, a loss taken on
    its logits and ``backward()`` stay fp32 (the encoder enters its
    parameters' dtype itself; op results and the gradient seed keep the
    dtype they were computed in)."""
    model = build(CONFIG)
    casts = _spy_on_casts(monkeypatch)
    tokens = rng.integers(0, CONFIG.vocab_size, size=(3, CONFIG.max_len))
    if build is _build_pair_classifier:
        tokens = np.stack([tokens, tokens[::-1]], axis=1)
    targets = rng.integers(0, CONFIG.n_classes, size=3)
    assert F.get_default_dtype() == np.float64
    logits = model(tokens)
    loss = nn.cross_entropy_logits(logits, targets)
    loss.backward()
    with nn.no_grad():
        eval_logits = model.eval()(tokens)
    assert logits.dtype == loss.dtype == eval_logits.dtype == np.float32
    assert casts == []
    # The pair classifier pools both towers and never calls the encoder's
    # own classification head.
    pair = build is _build_pair_classifier
    _assert_float32_grads(model, unused=("encoder.head.",) if pair else ())


def test_backward_runs_in_the_tensors_own_dtype(monkeypatch, rng):
    """The gradient is seeded, and an explicit one cast, in the dtype of the
    tensor ``backward`` is called on, not the ambient policy's."""
    with nn.default_dtype("float32"):
        a = nn.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = nn.Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = F.gelu(a * b)
        loss = F.sum_(out)
    assert F.get_default_dtype() == np.float64
    assert out.dtype == loss.dtype == np.float32
    casts = _spy_on_casts(monkeypatch)
    loss.backward(retain_graph=True)
    assert a.grad.dtype == b.grad.dtype == np.float32
    assert casts == []
    seeded = a.grad.copy()
    a.grad = None
    out.backward(np.ones((3, 4)))  # a float64 seed from the caller: cast once
    assert a.grad.dtype == np.float32
    np.testing.assert_array_equal(a.grad, seeded)


@pytest.mark.parametrize("build", [build_dense_decoder, build_butterfly_decoder])
def test_decoders_train_prefill_and_decode_in_float32(build, monkeypatch, rng):
    model = build(CONFIG)
    casts = _spy_on_casts(monkeypatch)
    tokens = rng.integers(0, CONFIG.vocab_size, size=(2, 8))
    with CONFIG.dtype_context():
        logits = model(tokens[:, :-1])
        flat = F.reshape(logits, (-1, CONFIG.vocab_size))
        nn.cross_entropy_logits(flat, tokens[:, 1:].reshape(-1)).backward()
        model.eval()
        with nn.no_grad():
            cache = model.make_cache(2)
            prefill = model.prefill(tokens, cache)
            step = model.decode_step(prefill.argmax(axis=-1), cache)
    assert logits.dtype == prefill.dtype == step.dtype == np.float32
    assert casts == []
    _assert_float32_grads(model)


@pytest.mark.parametrize("build,quantize", [
    (build_dense_decoder, None),
    (build_butterfly_decoder, None),
    (build_dense_decoder, "int8"),
])
def test_bare_serving_engine_decodes_in_the_models_dtype(
    build, quantize, monkeypatch, rng
):
    engine = ServingEngine(build(CONFIG).eval(), max_batch_size=2,
                           quantize=quantize)
    operands, logits = [], []
    real_matmul, real_quantized = backend.matmul, QK.quantized_linear

    def matmul(a, b, out):
        operands.extend([a.dtype, b.dtype, out.dtype])
        return real_matmul(a, b, out)

    def quantized_linear(x, *args, **kwargs):
        y = real_quantized(x, *args, **kwargs)
        operands.extend([x.dtype, y.dtype])
        return y

    monkeypatch.setattr(backend, "matmul", matmul)
    monkeypatch.setattr(QK, "quantized_linear", quantized_linear)
    for name in ("prefill", "decode_step"):
        real = getattr(engine.model, name)
        monkeypatch.setattr(
            engine.model, name,
            lambda *a, _real=real: (logits.append(_real(*a)), logits[-1])[1],
        )
    assert F.get_default_dtype() == np.float64  # no context anywhere
    handles = [
        engine.submit(rng.integers(0, CONFIG.vocab_size, size=n),
                      SamplingParams(max_new_tokens=4, seed=n))
        for n in (3, 5, 4)
    ]
    engine.drain(timeout_s=30.0)
    assert all(len(h.result().tokens) == 4 for h in handles)
    assert operands and set(operands) == {np.dtype(np.float32)}
    assert len(logits) >= 4 and {l.dtype for l in logits} == {np.dtype(np.float32)}


@pytest.mark.parametrize("build", [build_dense_decoder, build_butterfly_decoder])
def test_decoder_forward_and_loss_ignore_the_ambient_policy(build, monkeypatch, rng):
    """Outside any dtype context an fp32 decoder's full-window forward,
    loss and uncached generate stay fp32 (they enter the parameters'
    dtype themselves), so the full-window oracle and the program agree."""
    model = build(CONFIG)
    casts = _spy_on_casts(monkeypatch)
    tokens = rng.integers(0, CONFIG.vocab_size, size=(2, 8))
    assert F.get_default_dtype() == np.float64
    loss = model.loss(tokens)
    loss.backward()
    model.eval()
    with nn.no_grad():
        logits = model(tokens)
    cached = model.generate(tokens[:, :3], 4)
    assert np.array_equal(model.generate(tokens[:, :3], 4, use_cache=False), cached)
    assert loss.dtype == logits.dtype == np.float32
    assert casts == []
    _assert_float32_grads(model)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_kernels_return_the_input_dtype(rng, dtype):
    q, k, v = (rng.normal(size=(2, 2, 5, 4)).astype(dtype) for _ in range(3))
    lengths = np.array([4, 2])
    assert AK.attention_forward(q, k, v, causal=True)[0].dtype == dtype
    assert AK.attention_reference(q, k, v, causal=True).dtype == dtype
    assert AK.attention_decode(q[:, :, 0], k, v, lengths=lengths).dtype == dtype

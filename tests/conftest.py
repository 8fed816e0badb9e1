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
    """``(mode, w) -> (codes, scales-or-None)``: one 2-D weight in the
    stored format ``mode``.  A new entry of ``nn.QUANT_MODES`` needs a
    row here before the tier-contract suite will run on it."""
    from repro.kernels import quant as QK

    def store(mode, w):
        if mode == "int8":
            return QK.quantize_per_channel(w)
        if mode == "fp16":
            return w.astype(np.float16), None
        raise AssertionError(f"no tier-contract row for storage format {mode!r}")

    return store


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

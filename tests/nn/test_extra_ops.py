"""clip/var operations."""

import numpy as np
import pytest

from repro.nn import tensor as F
from repro.nn.tensor import Tensor


class TestClip:
    def test_forward(self):
        out = F.clip(Tensor(np.array([-2.0, 0.5, 3.0])), -1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])

    def test_gradient_masks_saturated(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        F.clip(x, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="inverted"):
            F.clip(Tensor(np.zeros(2)), 1.0, -1.0)

    def test_gradient_numeric(self, rng, gradcheck):
        x = rng.normal(size=(8,)) * 2
        x[np.abs(np.abs(x) - 1.0) < 0.1] += 0.3  # away from clip edges
        gradcheck(lambda t: F.clip(t, -1.0, 1.0), x)


class TestVar:
    def test_matches_numpy(self, rng):
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            F.var(Tensor(x), axis=1).data, x.var(axis=1), atol=1e-12
        )

    def test_keepdims(self, rng):
        x = rng.normal(size=(4, 6))
        assert F.var(Tensor(x), axis=1, keepdims=True).shape == (4, 1)

    def test_gradient(self, rng, gradcheck):
        gradcheck(lambda t: F.var(t, axis=-1), rng.normal(size=(3, 5)))

    def test_constant_input_zero_variance(self):
        out = F.var(Tensor(np.full((2, 4), 3.0)), axis=1)
        np.testing.assert_allclose(out.data, np.zeros(2), atol=1e-12)

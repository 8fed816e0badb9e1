"""The var operation."""

import numpy as np

from repro.nn import tensor as F
from repro.nn.tensor import Tensor


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

"""Forward-value and API behavior of the tensor operations."""

import numpy as np
import pytest

from repro.nn import tensor as F
from repro.nn.tensor import Tensor


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_construction_preserves_float64(self):
        arr = np.ones((2, 2))
        t = Tensor(arr)
        assert t.data is arr  # no copy for matching dtype

    def test_item_scalar(self):
        assert Tensor(5.0).item() == 5.0

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_shape_and_grad(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "shape=(2, 3)" in repr(t)
        assert "requires_grad=True" in repr(t)

    def test_properties(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.ndim == 3
        assert t.size == 24


class TestOperatorOverloads:
    def test_radd_rsub_rmul_rtruediv(self):
        t = Tensor(np.array([2.0, 4.0]))
        np.testing.assert_allclose((1.0 + t).data, [3.0, 5.0])
        np.testing.assert_allclose((1.0 - t).data, [-1.0, -3.0])
        np.testing.assert_allclose((3.0 * t).data, [6.0, 12.0])
        np.testing.assert_allclose((8.0 / t).data, [4.0, 2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor(np.array([1.0, -2.0]))).data, [-1.0, 2.0])

    def test_pow_operator(self):
        np.testing.assert_allclose((Tensor(np.array([2.0])) ** 3).data, [8.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0], [2.0]]))
        np.testing.assert_allclose((a @ b).data, [[1.0], [2.0]])

    def test_getitem_operator(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(t[0].data, [0.0, 1.0, 2.0])

    def test_method_chaining(self):
        t = Tensor(np.full((2, 2), 4.0))
        out = t.log().mean(axis=0).sum()
        np.testing.assert_allclose(out.data, 2 * np.log(4.0))

    def test_reshape_tuple_or_varargs(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape((3, 2)).shape == (3, 2)


class TestForwardValues:
    def test_softmax_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_stability_large_values(self):
        out = F.softmax(Tensor(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12
        )

    def test_layer_norm_zero_mean_unit_var(self, rng):
        x = Tensor(rng.normal(size=(5, 8)) * 3 + 2)
        out = F.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(5), atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(5), atol=1e-3)

    def test_gelu_known_values(self):
        out = F.gelu(Tensor(np.array([0.0, 100.0, -100.0])))
        np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-6)

    def test_embedding_gathers_rows(self, rng):
        w = Tensor(rng.normal(size=(5, 3)))
        out = F.embedding(w, np.array([[4, 0], [1, 1]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[0, 0], w.data[4])

    def test_fourier_mix_2d_matches_numpy(self, rng):
        x = rng.normal(size=(2, 8, 4))
        out = F.fourier_mix_2d(Tensor(x))
        np.testing.assert_allclose(out.data, np.fft.fft2(x, axes=(-2, -1)).real)

    def test_max_all(self, rng):
        x = rng.normal(size=(3, 4))
        assert F.max_(Tensor(x)).item() == pytest.approx(x.max())


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = F.cross_entropy_logits(logits, np.zeros(4, dtype=int))
        np.testing.assert_allclose(loss.data, np.log(8.0))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = F.cross_entropy_logits(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_requires_2d(self):
        with pytest.raises(ValueError, match="batch"):
            F.cross_entropy_logits(Tensor(np.zeros(3)), np.array([0]))

    def test_cross_entropy_gradient_sums_to_zero(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        F.cross_entropy_logits(logits, np.array([0, 1, 2])).backward()
        np.testing.assert_allclose(logits.grad.sum(axis=-1), np.zeros(3), atol=1e-12)

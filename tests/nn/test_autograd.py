"""Finite-difference gradient checks for every autograd operation."""


import numpy as np
import pytest

from repro import nn
from repro.nn import tensor as F
from repro.nn.tensor import Tensor


class TestArithmeticGradients:
    def test_add(self, rng, gradcheck):
        gradcheck(F.add, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_add_broadcast(self, rng, gradcheck):
        gradcheck(F.add, rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_add_scalar_broadcast(self, rng, gradcheck):
        gradcheck(F.add, rng.normal(size=(2, 3)), rng.normal(size=(1,)))

    def test_sub(self, rng, gradcheck):
        gradcheck(F.sub, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_mul(self, rng, gradcheck):
        gradcheck(F.mul, rng.normal(size=(2, 5)), rng.normal(size=(2, 5)))

    def test_mul_broadcast(self, rng, gradcheck):
        gradcheck(F.mul, rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 1)))

    def test_div(self, rng, gradcheck):
        denom = rng.normal(size=(3, 3)) + 3.0
        gradcheck(F.div, rng.normal(size=(3, 3)), denom)

    def test_power(self, rng, gradcheck):
        x = np.abs(rng.normal(size=(4,))) + 0.5
        gradcheck(lambda t: F.power(t, 3.0), x)

    def test_exp(self, rng, gradcheck):
        gradcheck(F.exp, rng.normal(size=(3, 2)) * 0.5)

    def test_log(self, rng, gradcheck):
        gradcheck(F.log, np.abs(rng.normal(size=(5,))) + 0.5)

    def test_sqrt(self, rng, gradcheck):
        gradcheck(F.sqrt, np.abs(rng.normal(size=(4,))) + 0.5)

    def test_tanh(self, rng, gradcheck):
        gradcheck(F.tanh, rng.normal(size=(3, 3)))

    def test_gelu(self, rng, gradcheck):
        gradcheck(F.gelu, rng.normal(size=(6,)))

    def test_gelu_matches_the_tanh_formula_in_graph_ops(self, rng):
        # nn.gelu's exp2 chain and sigmoid VJP against the tanh
        # approximation it computes, recorded op by op through F.tanh.
        x = rng.normal(size=(4, 8)) * 3
        weights = rng.normal(size=x.shape)
        a, b = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        got = F.gelu(a)
        c = float(np.sqrt(2.0 / np.pi))
        formula = 0.5 * b * (1.0 + F.tanh(c * (b + 0.044715 * b * b * b)))
        F.sum_(got * weights).backward()
        F.sum_(formula * weights).backward()
        np.testing.assert_allclose(got.data, formula.data, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(a.grad, b.grad, rtol=1e-12, atol=1e-14)


class TestMatmulGradients:
    def test_2d(self, rng, gradcheck):
        gradcheck(F.matmul, rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))

    def test_batched(self, rng, gradcheck):
        gradcheck(F.matmul, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2)))

    def test_broadcast_batch(self, rng, gradcheck):
        gradcheck(F.matmul, rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)))

    def test_vector_vector(self, rng, gradcheck):
        gradcheck(F.matmul, rng.normal(size=(4,)), rng.normal(size=(4,)))

    def test_matrix_vector(self, rng, gradcheck):
        gradcheck(F.matmul, rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_vector_matrix(self, rng, gradcheck):
        gradcheck(F.matmul, rng.normal(size=(4,)), rng.normal(size=(4, 3)))


class TestShapeGradients:
    def test_reshape(self, rng, gradcheck):
        gradcheck(lambda t: F.reshape(t, (6,)), rng.normal(size=(2, 3)))

    def test_transpose_default(self, rng, gradcheck):
        gradcheck(lambda t: F.transpose(t), rng.normal(size=(3, 4)))

    def test_transpose_axes(self, rng, gradcheck):
        gradcheck(lambda t: F.transpose(t, (1, 2, 0)), rng.normal(size=(2, 3, 4)))

    def test_swapaxes(self, rng, gradcheck):
        gradcheck(lambda t: F.swapaxes(t, 0, 2), rng.normal(size=(2, 3, 4)))

    def test_getitem_slice(self, rng, gradcheck):
        gradcheck(lambda t: F.getitem(t, (slice(0, 2),)), rng.normal(size=(4, 3)))

    def test_getitem_fancy(self, rng, gradcheck):
        idx = (np.array([0, 1, 1]), np.array([2, 0, 0]))
        gradcheck(lambda t: F.getitem(t, idx), rng.normal(size=(3, 4)))

    def test_concat(self, rng, gradcheck):
        gradcheck(
            lambda a, b: F.concat([a, b], axis=1),
            rng.normal(size=(2, 3)),
            rng.normal(size=(2, 2)),
        )

    def test_stack(self, rng, gradcheck):
        gradcheck(
            lambda a, b: F.stack([a, b], axis=0),
            rng.normal(size=(2, 3)),
            rng.normal(size=(2, 3)),
        )


class TestReductionGradients:
    def test_sum_all(self, rng, gradcheck):
        gradcheck(lambda t: F.sum_(t), rng.normal(size=(3, 4)))

    def test_sum_axis(self, rng, gradcheck):
        gradcheck(lambda t: F.sum_(t, axis=1), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng, gradcheck):
        gradcheck(lambda t: F.sum_(t, axis=0, keepdims=True), rng.normal(size=(3, 4)))

    def test_sum_tuple_axis(self, rng, gradcheck):
        gradcheck(lambda t: F.sum_(t, axis=(0, 2)), rng.normal(size=(2, 3, 4)))

    def test_mean(self, rng, gradcheck):
        gradcheck(lambda t: F.mean(t, axis=-1), rng.normal(size=(3, 4)))

    def test_max_axis(self, rng, gradcheck):
        x = rng.normal(size=(3, 5))
        gradcheck(lambda t: F.max_(t, axis=1), x)


class TestNNPrimitiveGradients:
    def test_softmax(self, rng, gradcheck):
        gradcheck(lambda t: F.softmax(t, axis=-1), rng.normal(size=(3, 5)))

    def test_log_softmax(self, rng, gradcheck):
        gradcheck(lambda t: F.log_softmax(t, axis=-1), rng.normal(size=(2, 4)))

    def test_layer_norm(self, rng, gradcheck):
        x = rng.normal(size=(3, 6))
        gamma = rng.normal(size=(6,))
        beta = rng.normal(size=(6,))
        gradcheck(F.layer_norm, x, gamma, beta)

    def test_layer_norm_of_a_vector(self, rng, gradcheck):
        """A 1-D input broadcasts nothing, so ``grad * normed`` is gamma's
        gradient itself and must not be reused as the backward's scratch."""
        x, gamma, beta = rng.normal(size=(3, 6))
        gradcheck(F.layer_norm, x, gamma, beta)

    def test_embedding(self, rng, gradcheck):
        idx = np.array([[0, 2], [1, 1]])
        gradcheck(lambda w: F.embedding(w, idx), rng.normal(size=(4, 3)))

    def test_fourier_mix_2d(self, rng, gradcheck):
        gradcheck(F.fourier_mix_2d, rng.normal(size=(4, 4)))

    def test_where(self, rng, gradcheck):
        cond = rng.random((3, 3)) > 0.5
        gradcheck(
            lambda a, b: F.where(cond, a, b),
            rng.normal(size=(3, 3)),
            rng.normal(size=(3, 3)),
        )


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (t * 2).backward()

    def test_backward_explicit_gradient(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t * 3.0
        out.backward(np.full((2, 2), 2.0))
        np.testing.assert_allclose(t.grad, np.full((2, 2), 6.0))

    def test_backward_gradient_shape_mismatch(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t * 3.0
        with pytest.raises(ValueError, match="shape"):
            out.backward(np.ones(3))

    def test_gradient_accumulates_across_backwards(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (t * t).sum().backward()
        first = t.grad.copy()
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * first)

    def test_diamond_graph_accumulation(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 4.0
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_reused_node_gradient(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        out = (a * a).sum()  # d/dt (2t)^2 = 8t
        out.backward()
        np.testing.assert_allclose(t.grad, [24.0])

    def test_no_grad_context(self):
        with nn.no_grad():
            t = Tensor(np.ones(3), requires_grad=True)
            out = t * 2.0
        assert not t.requires_grad
        assert out._backward is None

    def test_no_grad_nested_restores(self):
        assert nn.tensor.is_grad_enabled()
        with nn.no_grad():
            assert not nn.tensor.is_grad_enabled()
            with nn.no_grad():
                assert not nn.tensor.is_grad_enabled()
            assert not nn.tensor.is_grad_enabled()
        assert nn.tensor.is_grad_enabled()

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * t).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_non_leaf_does_not_store_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        mid = t * 2.0
        (mid * mid).sum().backward()
        assert mid.grad is None
        assert t.grad is not None

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(2000):
            out = out * 1.0005
        out.sum().backward()
        assert t.grad is not None and t.grad[0] > 1.0

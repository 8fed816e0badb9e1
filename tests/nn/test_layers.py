"""Core layers: Linear, Embedding, LayerNorm, activations."""

import numpy as np

from repro import nn


class TestLinear:
    def test_output_shape(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        out = layer(nn.Tensor(rng.normal(size=(3, 6))))
        assert out.shape == (3, 4)

    def test_batched_3d_input(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        out = layer(nn.Tensor(rng.normal(size=(2, 5, 6))))
        assert out.shape == (2, 5, 4)

    def test_matches_manual_affine(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(nn.Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = nn.Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1

    def test_xavier_bound(self, rng):
        layer = nn.Linear(100, 100, rng=rng)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound

    def test_gradients_flow(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        out = layer(nn.Tensor(rng.normal(size=(5, 3))))
        (out * out).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = nn.Embedding(10, 4, rng=rng)
        out = emb(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, 4)

    def test_same_token_same_vector(self, rng):
        emb = nn.Embedding(10, 4, rng=rng)
        out = emb(np.array([2, 2])).data
        np.testing.assert_allclose(out[0], out[1])

    def test_gradient_accumulates_for_repeated_tokens(self, rng):
        emb = nn.Embedding(5, 3, rng=rng)
        out = emb(np.array([1, 1, 1]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], np.full(3, 3.0))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))


class TestLayerNorm:
    def test_normalizes(self, rng):
        ln = nn.LayerNorm(8)
        out = ln(nn.Tensor(rng.normal(size=(4, 8)) * 5 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-10)

    def test_affine_parameters_used(self, rng):
        ln = nn.LayerNorm(4)
        ln.gamma.data[:] = 2.0
        ln.beta.data[:] = 1.0
        out = ln(nn.Tensor(rng.normal(size=(3, 4))))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.ones(3), atol=1e-10)

    def test_parameters_registered(self):
        assert {n for n, _ in nn.LayerNorm(4).named_parameters()} == {"gamma", "beta"}


class TestActivations:
    def test_gelu_module_matches_functional(self, rng):
        x = rng.normal(size=(5,))
        np.testing.assert_allclose(
            nn.GELU()(nn.Tensor(x)).data, nn.tensor.gelu(nn.Tensor(x)).data
        )

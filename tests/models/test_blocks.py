"""The one block: vanilla, FBfly and ABfly variants, bidirectional or causal."""

import numpy as np
import pytest

from repro import kernels, nn
from repro.models import Block, EncoderClassifier, FeedForward, ModelConfig, block_layout
from repro.nn.tensor import Tensor


class TestFeedForward:
    def test_dense_shapes(self, rng):
        ffn = FeedForward(8, 16, rng=rng)
        assert ffn(Tensor(rng.normal(size=(2, 3, 8)))).shape == (2, 3, 8)
        assert isinstance(ffn.fc1, nn.Linear)

    def test_butterfly_uses_butterfly_layers(self, rng):
        ffn = FeedForward(8, 16, butterfly=True, rng=rng)
        assert isinstance(ffn.fc1, nn.ButterflyLinear)
        assert isinstance(ffn.fc2, nn.ButterflyLinear)

    def test_butterfly_fewer_params(self, rng):
        dense = FeedForward(64, 256, rng=rng)
        bfly = FeedForward(64, 256, butterfly=True, rng=rng)
        assert bfly.num_parameters() < dense.num_parameters() / 3


class TestBlock:
    @pytest.mark.parametrize("mixing", Block.MIXINGS)
    def test_forward_shape(self, mixing, rng):
        block = Block(8, 2, 2, mixing=mixing, rng=rng).eval()
        out = block(Tensor(rng.normal(size=(2, 4, 8))))
        assert out.shape == (2, 4, 8)

    def test_invalid_mixing(self):
        with pytest.raises(ValueError, match="mixing"):
            Block(8, 2, 2, mixing="conv")

    def test_fourier_mixing_has_no_causal_form(self):
        with pytest.raises(ValueError, match="causal"):
            Block(8, 2, 2, mixing="fourier", causal=True)

    def test_causal_blocks_run_causal_in_every_encoder_program(self, rng):
        """The one compile records each block's mask: an encoder stacking
        causal blocks runs causal attention in its no-grad and its
        training program, as its graph does."""
        config = ModelConfig(vocab_size=16, n_classes=3, max_len=8, d_hidden=8,
                             n_heads=2, r_ffn=2, n_total=2, seed=0)
        blocks = [Block(8, 2, 2, mixing="butterfly_attention", butterfly_ffn=True,
                        causal=True, rng=rng) for _ in range(2)]
        model = EncoderClassifier(config, blocks, rng).eval()
        tokens = rng.integers(0, 16, size=(2, 8))
        with kernels.use_fused(False):
            want = model(tokens).data
        with nn.no_grad():
            inferred = model(tokens).data
        for got in (inferred, model(tokens).data):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_fourier_block_has_no_attention_params(self, rng):
        block = Block(8, 2, 2, mixing="fourier", rng=rng)
        names = {n for n, _ in block.named_parameters()}
        assert not any("q_proj" in n for n in names)

    def test_residual_connection_present(self, rng):
        """Zeroing the FFN and mixer weights must leave a LayerNormed input."""
        block = Block(4, 2, 1, mixing="fourier", butterfly_ffn=False, rng=rng).eval()
        block.ffn.fc1.weight.data[:] = 0.0
        block.ffn.fc2.weight.data[:] = 0.0
        block.ffn.fc2.bias.data[:] = 0.0
        x = rng.normal(size=(1, 4, 4))
        out = block(Tensor(x)).data
        # With a dead FFN, the second sub-layer is LN(x + 0): still finite
        # and depending on x.
        assert np.isfinite(out).all()
        out2 = block(Tensor(x + 1e-3)).data
        assert np.abs(out - out2).max() > 0

    def test_gradients_flow_through_block(self, rng):
        block = Block(8, 2, 2, mixing="butterfly_attention",
                      butterfly_ffn=True, rng=rng)
        out = block(Tensor(rng.normal(size=(1, 4, 8))))
        (out * out).sum().backward()
        for name, p in block.named_parameters():
            assert p.grad is not None, f"no grad for {name}"


def _block(kind, rng):
    mixing, butterfly_ffn = kind
    return Block(8, 2, 2, mixing=mixing, butterfly_ffn=butterfly_ffn, rng=rng)


class TestBlockLayout:
    def test_fbfly_blocks_come_before_abfly_blocks(self):
        """Paper Fig. 5: ``N_total - N_ABfly`` FBfly blocks, then ABfly."""
        fbfly, abfly = ("fourier", True), ("butterfly_attention", True)
        assert block_layout(2, 1) == (fbfly, fbfly, abfly)
        assert block_layout(0, 0) == ()

    def test_dense_layout_has_vanilla_blocks(self):
        assert block_layout(1, 2, butterfly=False) == (
            ("fourier", False), ("attention", False), ("attention", False))

    def test_fbfly_block(self, rng):
        block = _block(block_layout(1, 0)[0], rng)
        assert block.mixing_kind == "fourier"
        assert block.butterfly_ffn
        assert isinstance(block.mixer, nn.FourierMixing)

    def test_abfly_block(self, rng):
        block = _block(block_layout(0, 1)[0], rng)
        assert block.mixing_kind == "butterfly_attention"
        assert block.butterfly_ffn
        assert isinstance(block.mixer, nn.MultiHeadAttention)
        assert block.mixer.butterfly

    def test_abfly_all_linear_layers_butterfly(self, rng):
        """The ABfly block compresses every linear layer (paper Fig. 5)."""
        block = _block(block_layout(0, 1)[0], rng)
        for layer in (block.mixer.q_proj, block.mixer.k_proj, block.mixer.v_proj,
                      block.mixer.out_proj, block.ffn.fc1, block.ffn.fc2):
            assert isinstance(layer, nn.ButterflyLinear)

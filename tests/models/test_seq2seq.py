"""Encoder-decoder butterfly Transformer (paper Fig. 2 completion)."""

import numpy as np
import pytest

from repro import nn
from repro.models import ModelConfig
from repro.models.seq2seq import (
    ButterflySeq2Seq,
    CrossAttention,
    generate_copy_task,
)


@pytest.fixture
def s2s_config():
    return ModelConfig(vocab_size=12, n_classes=2, max_len=16, d_hidden=16,
                       n_heads=2, r_ffn=2, n_total=1, n_abfly=0, seed=0)


class TestCrossAttention:
    def test_output_shape(self, rng):
        ca = CrossAttention(8, 2, rng=rng)
        x = nn.Tensor(rng.normal(size=(2, 3, 8)))
        mem = nn.Tensor(rng.normal(size=(2, 5, 8)))
        assert ca(x, mem).shape == (2, 3, 8)

    def test_depends_on_memory(self, rng):
        ca = CrossAttention(8, 2, rng=rng)
        x = nn.Tensor(rng.normal(size=(1, 3, 8)))
        m1 = nn.Tensor(rng.normal(size=(1, 4, 8)))
        m2 = nn.Tensor(rng.normal(size=(1, 4, 8)))
        assert not np.allclose(ca(x, m1).data, ca(x, m2).data)

    def test_invalid_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            CrossAttention(10, 3)

    def test_butterfly_projections(self, rng):
        ca = CrossAttention(8, 2, butterfly=True, rng=rng)
        assert isinstance(ca.q_proj, nn.ButterflyLinear)
        dense = CrossAttention(8, 2, butterfly=False, rng=rng)
        assert isinstance(dense.q_proj, nn.Linear)


class TestSeq2SeqModel:
    def test_forward_shapes(self, s2s_config, rng):
        model = ButterflySeq2Seq(s2s_config).eval()
        src = rng.integers(2, 12, size=(2, 8))
        tgt = rng.integers(2, 12, size=(2, 6))
        logits = model(src, tgt)
        assert logits.shape == (2, 6, 12)

    def test_decoder_is_causal(self, s2s_config, rng):
        model = ButterflySeq2Seq(s2s_config).eval()
        src = rng.integers(2, 12, size=(1, 8))
        tgt = rng.integers(2, 12, size=(1, 8))
        base = model(src, tgt).data
        perturbed = tgt.copy()
        perturbed[0, 5:] = 2 + (perturbed[0, 5:] % 9)
        out = model(src, perturbed).data
        np.testing.assert_allclose(base[0, :5], out[0, :5], atol=1e-10)

    def test_decoder_attends_to_source(self, s2s_config, rng):
        model = ButterflySeq2Seq(s2s_config).eval()
        tgt = rng.integers(2, 12, size=(1, 4))
        a = model(rng.integers(2, 12, size=(1, 8)), tgt).data
        b = model(rng.integers(2, 12, size=(1, 8)), tgt).data
        assert np.abs(a - b).max() > 1e-9

    def test_rejects_long_target(self, s2s_config, rng):
        model = ButterflySeq2Seq(s2s_config)
        src = rng.integers(2, 12, size=(1, 8))
        with pytest.raises(ValueError, match="max_len"):
            model(src, rng.integers(2, 12, size=(1, 17)))

    def test_training_learns_copy_task(self, s2s_config):
        src, tgt = generate_copy_task(n_samples=64, seq_len=6, vocab=12, seed=0)
        model = ButterflySeq2Seq(s2s_config)
        opt = nn.Adam(model.parameters(), lr=3e-3)
        losses = []
        for step in range(40):
            idx = slice((step * 16) % 48, (step * 16) % 48 + 16)
            loss = model.loss(src[idx], tgt[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.75

    def test_greedy_translate_shape(self, s2s_config, rng):
        model = ButterflySeq2Seq(s2s_config)
        src = rng.integers(2, 12, size=(2, 6))
        out = model.greedy_translate(src, bos=1)
        assert out.shape == (2, 7)
        assert (out[:, 0] == 1).all()

    @pytest.mark.parametrize("training", [True, False])
    def test_greedy_translate_keeps_the_callers_mode(self, s2s_config, rng, training):
        model = ButterflySeq2Seq(s2s_config).train(training)
        model.greedy_translate(rng.integers(2, 12, size=(1, 4)), bos=1)
        assert model.training is training
        assert model.encoder.training is training
        assert model.decoder_blocks[0].training is training

    def test_gradients_reach_everything(self, s2s_config, rng):
        model = ButterflySeq2Seq(s2s_config)
        src = rng.integers(2, 12, size=(2, 6))
        tgt = rng.integers(2, 12, size=(2, 6))
        model.loss(src, tgt).backward()
        # The encoder's classification head is unused in seq2seq mode.
        missing = [
            n for n, p in model.named_parameters()
            if p.grad is None and not n.startswith("encoder.head")
        ]
        assert missing == []


class TestCopyTaskData:
    def test_shapes_and_bos(self):
        src, tgt = generate_copy_task(n_samples=10, seq_len=5, vocab=8)
        assert src.shape == (10, 5)
        assert tgt.shape == (10, 6)
        assert (tgt[:, 0] == 1).all()
        np.testing.assert_array_equal(tgt[:, 1:], src)

    def test_reverse_variant(self):
        src, tgt = generate_copy_task(n_samples=4, seq_len=5, reverse=True)
        np.testing.assert_array_equal(tgt[:, 1:], src[:, ::-1])

    def test_tokens_avoid_reserved_ids(self):
        src, _ = generate_copy_task(n_samples=20, seq_len=8, vocab=10)
        assert src.min() >= 2
        assert src.max() < 10

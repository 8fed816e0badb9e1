"""Butterfly decoder LM: causality, training, generation."""

import re

import numpy as np
import pytest

from repro import nn
from repro.data.charlm import VOCAB_SIZE, decode_tokens, encode_text, generate_charlm
from repro.models import (
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
)


@pytest.fixture
def lm_config():
    return ModelConfig(
        vocab_size=VOCAB_SIZE, n_classes=2, max_len=32, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0,
    )


class TestCausality:
    def test_future_tokens_do_not_affect_past_logits(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config).eval()
        tokens = rng.integers(1, VOCAB_SIZE, size=(1, 16))
        base = lm(tokens).data
        perturbed = tokens.copy()
        perturbed[0, 10:] = (perturbed[0, 10:] % (VOCAB_SIZE - 1)) + 1
        out = lm(perturbed).data
        np.testing.assert_allclose(base[0, :10], out[0, :10], atol=1e-10)

    def test_past_tokens_do_affect_later_logits(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config).eval()
        tokens = rng.integers(1, VOCAB_SIZE, size=(1, 16))
        base = lm(tokens).data
        perturbed = tokens.copy()
        perturbed[0, 0] = (perturbed[0, 0] % (VOCAB_SIZE - 1)) + 1
        out = lm(perturbed).data
        assert np.abs(base[0, -1] - out[0, -1]).max() > 1e-9

    def test_causal_mask_in_attention(self, rng):
        attn = nn.MultiHeadAttention(8, 2, causal=True, rng=rng).eval()
        x = rng.normal(size=(1, 6, 8))
        base = attn(nn.Tensor(x)).data
        x2 = x.copy()
        x2[0, 5] += 1.0
        out = attn(nn.Tensor(x2)).data
        np.testing.assert_allclose(base[0, :5], out[0, :5], atol=1e-10)


class TestForwardAndLoss:
    def test_logit_shape(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config).eval()
        tokens = rng.integers(0, VOCAB_SIZE, size=(3, 16))
        assert lm(tokens).shape == (3, 16, VOCAB_SIZE)

    def test_rejects_long_input(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        with pytest.raises(ValueError, match="max_len"):
            lm(rng.integers(0, VOCAB_SIZE, size=(1, 33)))

    def test_rejects_1d_input(self, lm_config):
        lm = build_butterfly_decoder(lm_config)
        with pytest.raises(ValueError, match="batch"):
            lm(np.zeros(8, dtype=int))

    def test_decode_step_names_the_shape_it_expects(self, lm_config):
        """A step takes one token per row; anything else is refused with
        the caller's own shape, before the cache moves."""
        lm = build_butterfly_decoder(lm_config).eval()
        cache = lm.make_cache(1)
        for tokens in (np.ones((1, 1), np.int64), np.int64(3)):
            shape = np.shape(tokens)
            with pytest.raises(ValueError, match=(
                    rf"tokens must be \(batch,\), got {re.escape(str(shape))}")):
                lm.decode_step(tokens, cache)
        assert cache.lengths.tolist() == [0]

    def test_an_empty_sequence_is_refused_before_the_cache_moves(self, lm_config):
        lm = build_dense_decoder(lm_config).eval()
        cache = lm.make_cache(1)
        with pytest.raises(ValueError, match=(
                r"tokens must be \(batch, s_new\) with s_new >= 1, got \(1, 0\)")):
            lm.prefill(np.zeros((1, 0), np.int64), cache)
        assert cache.lengths.tolist() == [0]

    def test_loss_near_log_vocab_at_init(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        tokens = rng.integers(0, VOCAB_SIZE, size=(4, 16))
        loss = lm.loss(tokens)
        assert abs(loss.item() - np.log(VOCAB_SIZE)) < 1.0

    def test_training_reduces_loss(self, lm_config):
        train, _ = generate_charlm(n_samples=48, seq_len=32, seed=0)
        lm = build_butterfly_decoder(lm_config)
        opt = nn.Adam(lm.parameters(), lr=3e-3)
        losses = []
        for step in range(12):
            batch = train[(step * 8) % 40 : (step * 8) % 40 + 8]
            loss = lm.loss(batch)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-3:]) < np.mean(losses[:3]) - 0.2

    def test_butterfly_fewer_params_than_dense(self, lm_config):
        bfly = build_butterfly_decoder(lm_config.with_(d_hidden=64))
        dense = build_dense_decoder(lm_config.with_(d_hidden=64))
        assert bfly.num_parameters() < dense.num_parameters()


class TestIdsAndShapes:
    """Every public entry checks ids as the encoder does: a negative one
    wrapped to the last embedding row, a float one was truncated, and
    ``generate`` / ``prefill`` raised a bare ``IndexError`` past the
    vocabulary."""

    ENTRIES = {
        "loss": lambda lm, t: lm.loss(t),
        "forward": lambda lm, t: lm(t),
        "generate": lambda lm, t: lm.generate(t, 2),
        "prefill": lambda lm, t: lm.eval().prefill(t, lm.make_cache(len(t))),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("tokens, match", [
        ([[1, -1, 2]], rf"tokens must lie in \[0, {VOCAB_SIZE}\)"),
        ([[1, VOCAB_SIZE, 2]], rf"tokens must lie in \[0, {VOCAB_SIZE}\)"),
        ([[1.7, 3.2, 2.0]], "tokens must be integer ids"),
    ])
    def test_bad_ids_are_refused(self, lm_config, entry, tokens, match):
        lm = build_butterfly_decoder(lm_config)
        with pytest.raises(ValueError, match=match):
            self.ENTRIES[entry](lm, np.asarray(tokens))

    @pytest.mark.parametrize("shape", [(2, 1), (0, 5), (5,)])
    def test_the_loss_names_the_shape_it_needs(self, lm_config, shape):
        """A one-token batch raised ``ZeroDivisionError``, an empty one
        returned NaN and 1-D tokens a bare ``IndexError``."""
        lm = build_dense_decoder(lm_config)
        with pytest.raises(ValueError, match=(
                rf"\(batch, seq >= 2\) tokens, got shape {re.escape(str(shape))}")):
            lm.loss(np.ones(shape, np.int64))


class TestGeneration:
    def test_greedy_extends_prompt(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(2, 5))
        out = lm.generate(prompt, max_new_tokens=7)
        assert out.shape == (2, 12)
        np.testing.assert_array_equal(out[:, :5], prompt)

    def test_greedy_is_deterministic(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(1, 4))
        a = lm.generate(prompt, max_new_tokens=6)
        b = lm.generate(prompt, max_new_tokens=6)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("training", [True, False])
    def test_generation_keeps_the_callers_mode(self, lm_config, rng, training, use_cache):
        lm = build_dense_decoder(lm_config).train(training)
        lm.generate(rng.integers(1, VOCAB_SIZE, size=(1, 4)), 3, use_cache=use_cache)
        assert lm.training is training
        assert lm.blocks[0].training is training

    def test_sampled_generation_varies_with_rng(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(1, 4))
        a = lm.generate(prompt, 10, temperature=2.0, rng=np.random.default_rng(1))
        b = lm.generate(prompt, 10, temperature=2.0, rng=np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_zero_new_tokens(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(1, 4))
        np.testing.assert_array_equal(lm.generate(prompt, 0), prompt)

    def test_an_empty_prompt_is_refused(self, lm_config):
        lm = build_dense_decoder(lm_config)
        with pytest.raises(ValueError, match=r"s_new >= 1, got \(1, 0\)"):
            lm.generate(np.zeros(0, np.int64), 3)

    def test_negative_new_tokens(self, lm_config):
        lm = build_butterfly_decoder(lm_config)
        with pytest.raises(ValueError, match="non-negative"):
            lm.generate(np.ones((1, 2), dtype=int), -1)

    def test_window_clipping_beyond_max_len(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(1, 30))
        out = lm.generate(prompt, max_new_tokens=8)
        assert out.shape == (1, 38)

    def test_cached_and_uncached_greedy_agree(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(3, 6))
        np.testing.assert_array_equal(
            lm.generate(prompt, 10, use_cache=True),
            lm.generate(prompt, 10, use_cache=False),
        )

    def test_cached_and_uncached_sampling_agree_with_same_rng(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(2, 5))
        a = lm.generate(prompt, 8, temperature=0.9, top_k=8,
                        rng=np.random.default_rng(0), use_cache=True)
        b = lm.generate(prompt, 8, temperature=0.9, top_k=8,
                        rng=np.random.default_rng(0), use_cache=False)
        np.testing.assert_array_equal(a, b)

    def test_top_k_sampling_stays_in_top_k(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(1, 4))
        window = prompt.copy()
        gen_rng = np.random.default_rng(5)
        for _ in range(6):
            logits = lm(window[:, -lm.config.max_len:]).data[:, -1]
            allowed = np.argsort(-logits[0])[:4]
            out = lm.generate(window, 1, temperature=1.5, top_k=4, rng=gen_rng)
            assert out[0, -1] in allowed
            window = out

    def test_top_p_sampling_varies_with_rng(self, lm_config, rng):
        lm = build_butterfly_decoder(lm_config)
        prompt = rng.integers(1, VOCAB_SIZE, size=(1, 4))
        a = lm.generate(prompt, 10, temperature=2.0, top_p=0.9,
                        rng=np.random.default_rng(1))
        b = lm.generate(prompt, 10, temperature=2.0, top_p=0.9,
                        rng=np.random.default_rng(2))
        assert not np.array_equal(a, b)
        assert a.shape == b.shape == (1, 14)


class TestCharLMData:
    def test_encode_decode_round_trip(self):
        text = "cat sees food"
        np.testing.assert_array_equal(
            encode_text(text), encode_text(text)
        )
        assert decode_tokens(encode_text(text)) == text

    def test_encode_rejects_unsupported(self):
        with pytest.raises(ValueError, match="unsupported"):
            encode_text("Hello!")

    def test_generate_charlm_shapes(self):
        train, test = generate_charlm(n_samples=50, seq_len=24, seed=1)
        assert train.shape == (40, 24)
        assert test.shape == (10, 24)
        assert train.max() < VOCAB_SIZE

    def test_deterministic(self):
        a, _ = generate_charlm(n_samples=10, seq_len=16, seed=5)
        b, _ = generate_charlm(n_samples=10, seq_len=16, seed=5)
        np.testing.assert_array_equal(a, b)

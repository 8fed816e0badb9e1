"""KV-cache incremental decoding must match full-context recompute."""

import numpy as np
import pytest

from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder
from repro.serving import DecoderKVCache

ATOL = {"float64": 1e-9, "float32": 1e-4}


def _config(dtype: str, max_len: int = 24) -> ModelConfig:
    return ModelConfig(
        vocab_size=28, n_classes=2, max_len=max_len, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0, dtype=dtype,
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("builder", [build_butterfly_decoder, build_dense_decoder])
class TestIncrementalParity:
    def test_stepwise_logits_match_full_forward(self, dtype, builder, rng):
        config = _config(dtype)
        model = builder(config).eval()
        tokens = rng.integers(1, config.vocab_size, size=(3, 12))
        with config.dtype_context():
            full = model(tokens).data
            cache = model.make_cache(3)
            logits = model.prefill(tokens[:, :5], cache)
            np.testing.assert_allclose(logits, full[:, 4], atol=ATOL[dtype])
            for t in range(5, tokens.shape[1]):
                logits = model.decode_step(tokens[:, t], cache)
                np.testing.assert_allclose(
                    logits, full[:, t], atol=ATOL[dtype],
                    err_msg=f"decode step {t} diverged from full recompute",
                )

    def test_prefill_whole_prompt_matches(self, dtype, builder, rng):
        config = _config(dtype)
        model = builder(config).eval()
        tokens = rng.integers(1, config.vocab_size, size=(2, 10))
        with config.dtype_context():
            full = model(tokens).data[:, -1]
            cache = model.make_cache(2)
            np.testing.assert_allclose(
                model.prefill(tokens, cache), full, atol=ATOL[dtype]
            )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestSlidingWindowEdge:
    def test_cached_generate_matches_recompute_across_edge(self, dtype, rng):
        """Greedy decoding across the max_len boundary: both paths agree."""
        config = _config(dtype, max_len=16)
        model = build_butterfly_decoder(config).eval()
        prompt = rng.integers(1, config.vocab_size, size=(2, 14))
        with config.dtype_context():
            cached = model.generate(prompt, 8, use_cache=True)
            reference = model.generate(prompt, 8, use_cache=False)
        np.testing.assert_array_equal(cached, reference)
        assert cached.shape == (2, 22)

    def test_decode_past_max_len_rejected(self, dtype, rng):
        config = _config(dtype, max_len=8)
        model = build_butterfly_decoder(config).eval()
        tokens = rng.integers(1, config.vocab_size, size=(1, 8))
        with config.dtype_context():
            cache = model.make_cache(1)
            model.prefill(tokens, cache)
            with pytest.raises(ValueError, match="max_len"):
                model.decode_step(np.array([1]), cache)

    def test_prompt_longer_than_max_len_is_clipped(self, dtype, rng):
        config = _config(dtype, max_len=8)
        model = build_butterfly_decoder(config).eval()
        prompt = rng.integers(1, config.vocab_size, size=(1, 20))
        with config.dtype_context():
            cached = model.generate(prompt, 4, use_cache=True)
            reference = model.generate(prompt, 4, use_cache=False)
        np.testing.assert_array_equal(cached, reference)


class TestRaggedBatch:
    def test_merged_rows_decode_like_isolated_rows(self, rng):
        """Continuous batching: ragged-length rows match per-row decoding."""
        config = _config("float64")
        model = build_butterfly_decoder(config).eval()
        short = rng.integers(1, config.vocab_size, size=(1, 4))
        long = rng.integers(1, config.vocab_size, size=(1, 9))

        cache_a = model.make_cache(1)
        model.prefill(short, cache_a)
        cache_b = model.make_cache(1)
        model.prefill(long, cache_b)
        merged = DecoderKVCache.merge([cache_a, cache_b])
        np.testing.assert_array_equal(merged.lengths, [4, 9])

        nxt = np.array([3, 7])
        batched = model.decode_step(nxt, merged)

        ref_a = model(np.concatenate([short, [[3]]], axis=1)).data[0, -1]
        ref_b = model(np.concatenate([long, [[7]]], axis=1)).data[0, -1]
        np.testing.assert_allclose(batched[0], ref_a, atol=1e-9)
        np.testing.assert_allclose(batched[1], ref_b, atol=1e-9)

    def test_select_rows_preserves_state(self, rng):
        config = _config("float64")
        model = build_butterfly_decoder(config).eval()
        tokens = rng.integers(1, config.vocab_size, size=(3, 6))
        cache = model.make_cache(3)
        model.prefill(tokens, cache)
        sub = cache.select_rows([2, 0])
        np.testing.assert_array_equal(sub.lengths, [6, 6])
        nxt = np.array([5, 9])
        logits = model.decode_step(nxt, sub)
        full = model(
            np.concatenate([tokens[[2, 0]], nxt[:, None]], axis=1)
        ).data[:, -1]
        np.testing.assert_allclose(logits, full, atol=1e-9)


class TestCacheGuards:
    def test_training_mode_rejected(self, rng):
        config = _config("float64")
        model = build_butterfly_decoder(config)  # still in train mode
        cache = model.make_cache(1)
        with pytest.raises(RuntimeError, match="eval"):
            model.prefill(rng.integers(1, 28, size=(1, 4)), cache)

    def test_batch_mismatch_rejected(self, rng):
        config = _config("float64")
        model = build_butterfly_decoder(config).eval()
        cache = model.make_cache(2)
        with pytest.raises(ValueError, match="batch"):
            model.prefill(rng.integers(1, 28, size=(3, 4)), cache)

    def test_merge_rejects_mismatched_geometry(self):
        a = DecoderKVCache(n_layers=1, batch=1, n_heads=2, d_head=4, max_len=8)
        b = DecoderKVCache(n_layers=1, batch=1, n_heads=2, d_head=4, max_len=16)
        with pytest.raises(ValueError, match="geometry"):
            DecoderKVCache.merge([a, b])

    def test_merge_rejects_mismatched_dtype(self):
        """Slice assignment would round the fp64 newcomer's keys (or widen
        the batch) without a word; the error names both dtypes."""
        geometry = dict(n_layers=1, batch=1, n_heads=2, d_head=4, max_len=8)
        batch = DecoderKVCache(**geometry, dtype=np.float32)
        newcomer = DecoderKVCache(**geometry, dtype=np.float64)
        with pytest.raises(ValueError, match="float64.*float32"):
            DecoderKVCache.merge([batch, newcomer])
        with pytest.raises(ValueError, match="float32.*float64"):
            DecoderKVCache.merge([newcomer, batch])

    def test_cache_dtype_follows_model(self):
        config = _config("float32")
        model = build_butterfly_decoder(config).eval()
        cache = model.make_cache(1)
        assert cache.layer(0).k.dtype == np.float32

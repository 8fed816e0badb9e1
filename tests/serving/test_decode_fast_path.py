"""The ``seq == 1`` decode fast path must match full-context recompute.

The serving engine's per-token hot path is the decoder's compiled
inference program (:mod:`repro.models.decode_program`), whose
single-token branch goes through :func:`repro.kernels.attention_decode`
(no transposes, no bias arrays).  These tests pin that branch against
the full-window ``Tensor`` forward — on a one-block decoder, so the
attention layer is what is being compared, and on whole-model logits —
in both policy dtypes and for ragged (continuous-batching) row lengths.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder
from repro.serving import DecoderKVCache

ATOL = {"float64": 1e-9, "float32": 1e-4}


def one_block_decoder(dtype, d_hidden, n_heads, seed):
    config = ModelConfig(
        vocab_size=16, n_classes=2, max_len=12, d_hidden=d_hidden,
        n_heads=n_heads, r_ffn=2, n_total=1, seed=seed, dtype=dtype,
    )
    return build_dense_decoder(config).eval()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestAttentionLayerFastPath:
    def test_single_token_step_matches_full_attention(self, dtype, rng):
        model = one_block_decoder(dtype, 16, 4, seed=5)
        tokens = rng.integers(0, 16, size=(2, 7))
        cache = model.make_cache(2)
        model.prefill(tokens[:, :6], cache)
        step = model.decode_step(tokens[:, 6], cache)
        with nn.no_grad():
            full = model(tokens).data[:, 6]
        assert step.dtype == np.dtype(dtype)
        np.testing.assert_allclose(step, full, atol=ATOL[dtype])

    def test_ragged_rows_mask_by_length(self, dtype, rng):
        """Rows at different context lengths attend only to their own prefix."""
        model = one_block_decoder(dtype, 8, 2, seed=6)
        contexts = [rng.integers(0, 16, size=n) for n in (5, 3)]
        new = rng.integers(0, 16, size=2)
        caches = []
        for context in contexts:  # solo prefills joined, as the scheduler does
            caches.append(model.make_cache(1))
            model.prefill(context[None, :], caches[-1])
        cache = DecoderKVCache.merge(caches)
        assert cache.lengths.tolist() == [5, 3]
        got = model.decode_step(new, cache)
        for row, context in enumerate(contexts):
            window = np.append(context, new[row])[None, :]
            with nn.no_grad():
                ref = model(window).data[:, -1]
            np.testing.assert_allclose(got[row:row + 1], ref, atol=ATOL[dtype])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestModelDecodeFastPath:
    def test_decode_steps_match_full_forward(self, dtype, rng):
        config = ModelConfig(
            vocab_size=28, n_classes=2, max_len=24, d_hidden=32,
            n_heads=4, r_ffn=2, n_total=2, seed=0, dtype=dtype,
        )
        model = build_butterfly_decoder(config).eval()
        tokens = rng.integers(1, config.vocab_size, size=(3, 10))
        with config.dtype_context():
            full = model(tokens).data
            cache = model.make_cache(3)
            model.prefill(tokens[:, :4], cache)
            for t in range(4, tokens.shape[1]):
                logits = model.decode_step(tokens[:, t], cache)
                np.testing.assert_allclose(
                    logits, full[:, t], atol=ATOL[dtype],
                    err_msg=f"fast-path decode step {t} diverged",
                )


class TestFastPathEngagement:
    def test_grad_enabled_single_token_still_exact(self, rng):
        """The program has one behaviour whatever the autograd mode is,
        and its single-token branch (``attention_decode``) agrees with
        its multi-token branch (``attention_forward``) on the same token."""
        model = one_block_decoder("float64", 8, 2, seed=7)
        tokens = rng.integers(0, 16, size=(1, 6))

        def primed(n):
            cache = model.make_cache(1)
            model.prefill(tokens[:, :n], cache)
            return cache

        with nn.no_grad():
            fast = model.decode_step(tokens[:, 5], primed(5))
        recorded = model.decode_step(tokens[:, 5], primed(5))
        assert isinstance(recorded, np.ndarray)
        assert recorded.tobytes() == fast.tobytes()
        slow = model.prefill(tokens[:, 4:6], primed(4))
        np.testing.assert_allclose(fast, slow, atol=1e-12)

"""Vectorized sampling: Gumbel-max correctness, top-k/top-p filtering."""

import numpy as np
import pytest

from repro.serving import SamplingParams, filter_logits, sample_logits


class TestGreedy:
    def test_greedy_is_argmax(self, rng):
        logits = rng.normal(size=(5, 11))
        np.testing.assert_array_equal(
            sample_logits(logits, temperature=0.0), logits.argmax(-1)
        )

    def test_greedy_ignores_rng(self, rng):
        logits = rng.normal(size=(3, 7))
        a = sample_logits(logits, temperature=0.0, rng=np.random.default_rng(1))
        b = sample_logits(logits, temperature=0.0, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)


class TestGumbelMax:
    def test_matches_softmax_distribution(self):
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        draws = sample_logits(
            np.tile(logits, (20000, 1)), temperature=1.0,
            rng=np.random.default_rng(0),
        )
        freqs = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(freqs, np.exp(logits), atol=0.02)

    def test_temperature_sharpens(self):
        logits = np.array([1.0, 0.0, -1.0])
        cold = sample_logits(np.tile(logits, (5000, 1)), temperature=0.2,
                             rng=np.random.default_rng(0))
        hot = sample_logits(np.tile(logits, (5000, 1)), temperature=5.0,
                            rng=np.random.default_rng(0))
        assert (cold == 0).mean() > (hot == 0).mean()

    def test_seeded_reproducibility(self, rng):
        logits = rng.normal(size=(6, 9))
        a = sample_logits(logits, temperature=1.0, rng=np.random.default_rng(3))
        b = sample_logits(logits, temperature=1.0, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_batched_rows_sample_independently(self, rng):
        logits = np.zeros((4000, 2))  # uniform over two tokens
        draws = sample_logits(logits, temperature=1.0,
                              rng=np.random.default_rng(0))
        assert 0.4 < draws.mean() < 0.6


class TestTopK:
    def test_restricts_support(self, rng):
        logits = rng.normal(size=(200, 16))
        draws = sample_logits(logits, temperature=2.0, top_k=3,
                              rng=np.random.default_rng(0))
        top3 = np.argsort(-logits, axis=-1)[:, :3]
        assert all(draws[i] in top3[i] for i in range(len(draws)))

    def test_top_k_one_is_greedy(self, rng):
        logits = rng.normal(size=(50, 8))
        draws = sample_logits(logits, temperature=1.0, top_k=1,
                              rng=np.random.default_rng(0))
        np.testing.assert_array_equal(draws, logits.argmax(-1))

    def test_top_k_larger_than_vocab_is_noop(self, rng):
        logits = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(
            filter_logits(logits, top_k=100), logits.astype(np.float64)
        )


class TestTopP:
    def test_nucleus_support(self):
        # probs 0.5/0.3/0.15/0.05: nucleus at p=0.6 is {0, 1}.
        logits = np.log(np.array([[0.5, 0.3, 0.15, 0.05]]))
        filtered = filter_logits(logits, top_p=0.6)
        assert np.isfinite(filtered[0, :2]).all()
        assert np.isinf(filtered[0, 2:]).all()

    def test_most_probable_token_always_kept(self, rng):
        logits = rng.normal(size=(10, 12))
        filtered = filter_logits(logits, top_p=1e-9)
        keep_counts = np.isfinite(filtered).sum(-1)
        np.testing.assert_array_equal(keep_counts, np.ones(10))
        np.testing.assert_array_equal(
            np.argmax(np.nan_to_num(filtered, neginf=-1e30), -1),
            logits.argmax(-1),
        )

    def test_top_p_one_is_noop(self, rng):
        logits = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(
            filter_logits(logits, top_p=1.0), logits.astype(np.float64)
        )

    def test_draws_stay_in_nucleus(self):
        logits = np.log(np.tile([0.5, 0.3, 0.15, 0.05], (500, 1)))
        draws = sample_logits(logits, temperature=1.0, top_p=0.6,
                              rng=np.random.default_rng(0))
        assert set(np.unique(draws)) <= {0, 1}


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_new_tokens": 0},
        {"temperature": -0.1},
        {"top_k": -1},
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"temperature": float("nan")},
        {"temperature": float("inf")},
        {"deadline_s": float("nan")},
        {"deadline_s": float("inf")},
        {"temperature": float("-inf")},
        {"deadline_s": float("-inf")},
        {"deadline_s": 0.0},
        {"deadline_s": -1.0},
        # Integer fields are checked by type: a float or bool used to be
        # accepted and then fail (top_k, seed) or round (max_new_tokens)
        # inside a decode step.
        {"top_k": 2.5},
        {"top_k": True},
        {"max_new_tokens": 2.5},
        {"max_new_tokens": True},
        {"seed": 1.5},
        {"seed": -1},
        {"stop_token": 3.0},
        {"stop_token": False},
    ])
    def test_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"temperature": 0.0},
        {"temperature": 1e6},
        {"deadline_s": None},
        {"deadline_s": 1e-6},
        {"seed": 0},
        {"top_k": np.int64(3), "seed": np.uint32(7), "stop_token": np.int8(2),
         "max_new_tokens": np.int32(4)},
    ])
    def test_boundary_params_accepted(self, kwargs):
        assert SamplingParams(**kwargs)

    def test_filter_rejects_bad_top_p(self, rng):
        with pytest.raises(ValueError, match="top_p"):
            filter_logits(rng.normal(size=(2, 4)), top_p=0.0)

    def test_params_defaults_valid(self):
        params = SamplingParams()
        assert params.temperature == 1.0 and params.top_k == 0

"""Butterfly factor matrices: structure, apply/dense equivalence."""

import numpy as np
import pytest

from repro.butterfly import (
    ButterflyFactor,
    num_stages,
    pair_indices,
    stage_halves,
)


def identity_factor(n, half):
    """The factor whose dense form is ``eye(n)``: a = d = 1, b = c = 0."""
    coeffs = np.zeros((4, n // 2))
    coeffs[0] = coeffs[3] = 1.0
    return ButterflyFactor(n, half, coeffs)


class TestStageStructure:
    @pytest.mark.parametrize("n,expected", [
        (2, [1]), (4, [1, 2]), (16, [1, 2, 4, 8]), (64, [1, 2, 4, 8, 16, 32]),
    ])
    def test_stage_halves(self, n, expected):
        assert stage_halves(n) == expected

    @pytest.mark.parametrize("n", [3, 5, 6, 12, 100])
    def test_stage_halves_rejects_non_pow2(self, n):
        with pytest.raises(ValueError, match="power of two"):
            stage_halves(n)

    def test_stage_halves_rejects_one(self):
        with pytest.raises(ValueError, match="power of two"):
            stage_halves(1)

    @pytest.mark.parametrize("n", [2, 8, 32, 256])
    def test_num_stages(self, n):
        assert num_stages(n) == int(np.log2(n))

    def test_pair_indices_half1(self):
        pairs = pair_indices(4, 1)
        np.testing.assert_array_equal(pairs, [[0, 1], [2, 3]])

    def test_pair_indices_half2(self):
        pairs = pair_indices(4, 2)
        np.testing.assert_array_equal(pairs, [[0, 2], [1, 3]])

    def test_pair_indices_largest_stage(self):
        pairs = pair_indices(8, 4)
        np.testing.assert_array_equal(pairs, [[0, 4], [1, 5], [2, 6], [3, 7]])

    def test_pair_indices_cover_all_elements_once(self):
        for half in stage_halves(32):
            pairs = pair_indices(32, half)
            flat = pairs.reshape(-1)
            assert sorted(flat) == list(range(32))

    def test_pair_indices_invalid_half(self):
        with pytest.raises(ValueError, match="invalid stage"):
            pair_indices(8, 3)
        with pytest.raises(ValueError, match="invalid stage"):
            pair_indices(8, 8)


class TestButterflyFactor:
    def test_identity_factor_is_identity(self, rng):
        for half in stage_halves(16):
            factor = identity_factor(16, half)
            x = rng.normal(size=16)
            np.testing.assert_allclose(factor.apply(x), x)
            np.testing.assert_allclose(factor.dense(), np.eye(16))

    @pytest.mark.parametrize("n,half", [(8, 1), (8, 2), (8, 4), (32, 8)])
    def test_apply_matches_dense(self, n, half, rng):
        factor = ButterflyFactor.random(n, half, rng)
        x = rng.normal(size=(5, n))
        np.testing.assert_allclose(factor.apply(x), x @ factor.dense().T, atol=1e-12)

    def test_dense_is_block_sparse(self, rng):
        """Each row/column of a factor has exactly two non-zeros."""
        factor = ButterflyFactor.random(16, 4, rng)
        dense = factor.dense()
        assert ((dense != 0).sum(axis=0) == 2).all()
        assert ((dense != 0).sum(axis=1) == 2).all()

    def test_complex_coefficients_supported(self, rng):
        coeffs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        factor = ButterflyFactor(8, 2, coeffs)
        x = rng.normal(size=8)
        np.testing.assert_allclose(factor.apply(x), factor.dense() @ x, atol=1e-12)

    def test_wrong_coeffs_shape(self):
        with pytest.raises(ValueError, match="coeffs"):
            ButterflyFactor(8, 2, np.zeros((4, 3)))

    def test_invalid_half(self):
        with pytest.raises(ValueError, match="half"):
            ButterflyFactor(8, 3, np.zeros((4, 4)))

    def test_apply_wrong_size(self, rng):
        factor = identity_factor(8, 2)
        with pytest.raises(ValueError, match="last dim"):
            factor.apply(rng.normal(size=7))

    def test_random_variance_scale(self, rng):
        """Default init keeps outputs near unit variance through a stage."""
        factor = ButterflyFactor.random(1024, 16, rng)
        x = rng.normal(size=(64, 1024))
        out = factor.apply(x)
        assert 0.7 < out.std() < 1.4

"""ButterflyMatrix: factor products, parameter counts, FLOPs."""

import numpy as np
import pytest

from repro.butterfly import ButterflyMatrix, butterfly_flops, stage_halves

from .test_factor import identity_factor


def identity_matrix(n):
    return ButterflyMatrix([identity_factor(n, h) for h in stage_halves(n)])


def _dense_flops(n):
    """FLOPs (mults + adds) of the dense ``n x n`` matrix-vector product."""
    return n * (2 * n - 1)


class TestConstruction:
    def test_identity(self, rng):
        matrix = identity_matrix(16)
        x = rng.normal(size=16)
        np.testing.assert_allclose(matrix.apply(x), x)
        np.testing.assert_allclose(matrix.dense(), np.eye(16))

    def test_requires_all_stages_in_order(self):
        factors = [identity_factor(8, h) for h in (1, 4, 2)]
        with pytest.raises(ValueError, match="application order"):
            ButterflyMatrix(factors)

    def test_requires_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            ButterflyMatrix([])

    def test_requires_same_size(self):
        factors = [identity_factor(8, 1), identity_factor(4, 2)]
        with pytest.raises(ValueError):
            ButterflyMatrix(factors)

    def test_depth(self):
        assert identity_matrix(64).depth == 6


class TestApplyDenseEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 128])
    def test_apply_matches_dense(self, n, rng):
        matrix = ButterflyMatrix.random(n, rng)
        x = rng.normal(size=(3, n))
        np.testing.assert_allclose(matrix.apply(x), x @ matrix.dense().T, atol=1e-9)

    def test_dense_product_order(self, rng):
        """dense() must be B_n @ ... @ B_2 (first factor applied first)."""
        matrix = ButterflyMatrix.random(8, rng)
        manual = np.eye(8)
        for factor in matrix.factors:
            manual = factor.dense() @ manual
        np.testing.assert_allclose(matrix.dense(), manual, atol=1e-12)

    def test_apply_is_linear(self, rng):
        matrix = ButterflyMatrix.random(16, rng)
        x, y = rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(
            matrix.apply(2.0 * x + 3.0 * y),
            2.0 * matrix.apply(x) + 3.0 * matrix.apply(y),
            atol=1e-10,
        )

    def test_apply_batch_shapes(self, rng):
        matrix = ButterflyMatrix.random(8, rng)
        assert matrix.apply(rng.normal(size=(2, 3, 8))).shape == (2, 3, 8)


class TestCosts:
    def test_num_parameters_is_2nlogn(self):
        assert identity_matrix(16).num_parameters == 2 * 16 * 4
        assert identity_matrix(256).num_parameters == 2 * 256 * 8

    def test_butterfly_flops_formula(self):
        assert butterfly_flops(16, rows=1) == 4 * 8 * 6
        assert butterfly_flops(16, rows=5) == 5 * 4 * 8 * 6

    def test_butterfly_cheaper_than_dense_for_large_n(self):
        n = 1024
        assert butterfly_flops(n) < _dense_flops(n) / 10

    def test_complexity_crossover(self):
        """O(n log n) vs O(n^2): the ratio grows with n."""
        ratios = [_dense_flops(n) / butterfly_flops(n) for n in (16, 64, 256, 1024)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

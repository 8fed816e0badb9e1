"""Butterfly approximation of dense matrices (expressiveness claims)."""

import numpy as np
import pytest

from repro.butterfly import (
    ButterflyMatrix,
    approximation_error,
    compare_with_truncated_svd,
    fit_butterfly,
)


class TestFitButterfly:
    def test_loss_decreases(self, rng):
        target = rng.normal(size=(8, 8))
        result = fit_butterfly(target, steps=120, rng=rng)
        assert np.mean(result.losses[-10:]) < np.mean(result.losses[:10]) * 0.5

    def test_recovers_identity_well(self, rng):
        result = fit_butterfly(np.eye(8), steps=300, rng=rng)
        assert approximation_error(result.layer, np.eye(8)) < 0.1

    def test_recovers_butterfly_structured_target(self, rng):
        """A target that *is* a butterfly product is fit to low error —
        the universality claim on its home turf."""
        target = ButterflyMatrix.random(8, rng).dense()
        result = fit_butterfly(target, steps=500, lr=0.03, rng=rng)
        assert approximation_error(result.layer, target) < 0.15

    def test_rectangular_targets(self, rng):
        target = rng.normal(size=(4, 8)) * 0.3
        result = fit_butterfly(target, steps=150, rng=rng)
        assert result.layer.in_features == 8
        assert result.layer.out_features == 4
        assert approximation_error(result.layer, target) < 1.0

    def test_rejects_non_matrix(self, rng):
        with pytest.raises(ValueError, match="matrix"):
            fit_butterfly(rng.normal(size=8))


class TestApproximationError:
    def test_zero_for_exact_weight(self, rng):
        from repro.nn import ButterflyLinear
        layer = ButterflyLinear(8, 8, bias=False, rng=rng)
        assert approximation_error(layer, layer.dense_weight()) == pytest.approx(0.0)

    def test_zero_target(self, rng):
        from repro.nn import ButterflyLinear
        layer = ButterflyLinear(4, 4, bias=False, rng=rng)
        assert approximation_error(layer, np.zeros((4, 4))) >= 0.0


class TestVsLowRank:
    def test_butterfly_beats_lowrank_on_butterfly_targets(self, rng):
        """On butterfly-structured targets, a parameter-matched truncated
        SVD cannot keep up — the Table II motivation for choosing
        butterfly over low-rank sparsity."""
        target = ButterflyMatrix.random(16, rng).dense()
        fit = fit_butterfly(target, steps=600, lr=0.03, rng=rng)
        report = compare_with_truncated_svd(target, fit)
        assert report["butterfly_error"] < report["lowrank_error"] + 0.05

    def test_report_fields(self, rng):
        fit = fit_butterfly(np.eye(8), steps=20, rng=rng)
        report = compare_with_truncated_svd(np.eye(8), fit, rank=2)
        assert set(report) == {"rank", "butterfly_error", "lowrank_error"}
        assert report["rank"] == 2

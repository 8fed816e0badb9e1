"""The Adam update."""

import numpy as np
import pytest

from repro import nn
from repro.nn import optim


def quadratic_params(start=5.0):
    p = nn.Parameter(np.array([start]))
    return p


def loss_of(p):
    return (p * p).sum()


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = quadratic_params()
        opt = nn.Adam([p], lr=0.001)
        loss_of(p).backward()
        opt.step()
        np.testing.assert_allclose(p.data, [5.0 - 0.001], atol=1e-8)

    def test_converges_on_quadratic(self):
        p = quadratic_params()
        opt = nn.Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            loss_of(p).backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_matches_textbook_update(self, rng):
        lr, (b1, b2), eps = 0.05, (0.9, 0.999), 1e-8
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (b1, b2, eps)
        start = rng.normal(size=6)
        grads = rng.normal(size=(4, 6))
        p = nn.Parameter(start.copy())
        opt = nn.Adam([p], lr=lr)
        w, m, v = start.copy(), np.zeros(6), np.zeros(6)
        for t, g in enumerate(grads, 1):
            p.grad = g.copy()
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.data, w, rtol=1e-12, atol=1e-14)

    def test_skips_params_without_grad(self):
        held, moved = nn.Parameter(np.array([3.0])), quadratic_params()
        opt = nn.Adam([held, moved], lr=0.1)
        loss_of(moved).backward()
        opt.step()
        np.testing.assert_array_equal(held.data, [3.0])
        assert moved.data[0] < 5.0

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf"),
                                    float("-inf")])
    def test_invalid_lr(self, lr):
        """NaN passed ``lr <= 0`` and trained every weight to NaN."""
        with pytest.raises(ValueError, match="learning rate"):
            nn.Adam([nn.Parameter(np.zeros(1))], lr=lr)

    def test_empty_params(self):
        with pytest.raises(ValueError, match="no parameters"):
            nn.Adam([], lr=0.1)

    def test_zero_grad(self):
        p = quadratic_params()
        opt = nn.Adam([p], lr=0.1)
        loss_of(p).backward()
        opt.zero_grad()
        assert p.grad is None

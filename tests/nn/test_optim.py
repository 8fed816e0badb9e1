"""Optimizers and learning-rate schedule."""

import numpy as np
import pytest

from repro import nn


def quadratic_params(start=5.0):
    p = nn.Parameter(np.array([start]))
    return p


def loss_of(p):
    return (p * p).sum()


class TestSGD:
    def test_plain_step(self):
        p = quadratic_params()
        opt = nn.SGD([p], lr=0.1)
        loss_of(p).backward()
        opt.step()
        np.testing.assert_allclose(p.data, [5.0 - 0.1 * 10.0])

    def test_momentum_accelerates(self):
        trajectories = {}
        for momentum in (0.0, 0.9):
            p = quadratic_params()
            opt = nn.SGD([p], lr=0.01, momentum=momentum)
            for _ in range(20):
                opt.zero_grad()
                loss_of(p).backward()
                opt.step()
            trajectories[momentum] = abs(p.data[0])
        assert trajectories[0.9] < trajectories[0.0]

    def test_weight_decay_shrinks_params(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_params_without_grad(self):
        p = nn.Parameter(np.array([1.0]))
        nn.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = quadratic_params()
        opt = nn.SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss_of(p).backward()
            opt.step()
        assert abs(p.data[0]) < 1e-6


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

    def test_weight_decay_decoupled(self):
        p = nn.Parameter(np.array([2.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=0.1)
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.1 * 2.0])

    def test_invalid_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            nn.Adam([nn.Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError, match="no parameters"):
            nn.Adam([], lr=0.1)

    def test_zero_grad(self):
        p = quadratic_params()
        opt = nn.Adam([p], lr=0.1)
        loss_of(p).backward()
        opt.zero_grad()
        assert p.grad is None

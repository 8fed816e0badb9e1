"""Adaptable Butterfly Unit: both dataflows on the shared multipliers."""

import numpy as np
import pytest

from repro.hardware.functional import AdaptableButterflyUnit, BUMode


class TestButterflyMode:
    def test_butterfly_op_values(self):
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.BUTTERFLY)
        out1, out2 = bu.butterfly_op(2.0, 3.0, w1=1.0, w2=0.5, w3=2.0, w4=-1.0)
        assert out1 == 2.0 * 1.0 + 3.0 * 2.0
        assert out2 == 2.0 * 0.5 + 3.0 * (-1.0)

    def test_butterfly_uses_four_multipliers(self):
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.BUTTERFLY)
        bu.butterfly_op(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert bu.mult_ops == 4
        assert bu.add_ops == 2
        assert bu.cycles == 1

    def test_mode_guard(self):
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.FFT)
        with pytest.raises(RuntimeError, match="configured for FFT"):
            bu.butterfly_op(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class TestFFTMode:
    def test_fft_op_values(self, rng):
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.FFT)
        x0 = complex(*rng.normal(size=2))
        x1 = complex(*rng.normal(size=2))
        w = np.exp(-2j * np.pi * 0.3)
        out1, out2 = bu.fft_op(x0, x1, w)
        assert out1 == pytest.approx(x0 + x1 * w)
        assert out2 == pytest.approx(x0 - x1 * w)

    def test_fft_uses_four_multipliers(self):
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.FFT)
        bu.fft_op(1 + 1j, 1 - 1j, np.exp(-1j))
        assert bu.mult_ops == 4

    def test_mode_guard(self):
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.BUTTERFLY)
        with pytest.raises(RuntimeError, match="configured for butterfly"):
            bu.fft_op(1j, 1j, 1j)


class TestResourceSharing:
    def test_same_multiplier_count_per_op(self):
        """The unified-engine claim: both modes consume 4 multipliers/op."""
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.BUTTERFLY)
        bu.butterfly_op(1.0, 2.0, 0.1, 0.2, 0.3, 0.4)
        bfly_mults = bu.mult_ops
        bu.reset_counters()
        bu.configure(BUMode.FFT)
        bu.fft_op(1 + 2j, 3 - 1j, np.exp(-0.5j))
        assert bu.mult_ops == bfly_mults == 4

    def test_reset_counters(self):
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.BUTTERFLY)
        bu.butterfly_op(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        bu.reset_counters()
        assert bu.mult_ops == 0
        assert bu.add_ops == 0
        assert bu.cycles == 0

    def test_runtime_reconfiguration(self):
        """One unit can alternate modes between layers (the adaptability)."""
        bu = AdaptableButterflyUnit()
        bu.configure(BUMode.BUTTERFLY)
        o1, o2 = bu.butterfly_op(1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
        assert (o1, o2) == (1.0, 1.0)
        bu.configure(BUMode.FFT)
        f1, f2 = bu.fft_op(1 + 0j, 1 + 0j, 1 + 0j)
        assert (f1, f2) == (2 + 0j, 0 + 0j)

"""FFT-as-butterfly: the bit reversal and the twiddle factors against the DFT.

``fft`` below is the factorization the Butterfly Engine's FFT mode runs:
the bit-reversal permutation, then :func:`fft_butterfly`'s twiddle stages
through the shared butterfly kernel."""

import numpy as np
import pytest

from repro.butterfly import (
    bit_reversal_permutation,
    fft_butterfly,
    fft_stage_factor,
)


def fft(x):
    """The DFT along the last axis: bit reversal, then the twiddle stages."""
    n = x.shape[-1]
    return fft_butterfly(n).apply(x[..., bit_reversal_permutation(n)])


def fft2(x):
    """The 2D DFT over the last two axes: rows, then columns."""
    return np.swapaxes(fft(np.swapaxes(fft(x), -1, -2)), -1, -2)


class TestBitReversal:
    def test_size_8(self):
        np.testing.assert_array_equal(
            bit_reversal_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7]
        )

    def test_is_involution(self):
        perm = bit_reversal_permutation(64)
        np.testing.assert_array_equal(perm[perm], np.arange(64))

    def test_is_permutation(self):
        perm = bit_reversal_permutation(32)
        assert sorted(perm) == list(range(32))

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError, match="power of two"):
            bit_reversal_permutation(12)

    def test_size_1(self):
        np.testing.assert_array_equal(bit_reversal_permutation(1), [0])


class TestFFTCorrectness:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 1024])
    def test_matches_numpy_real_input(self, n, rng):
        x = rng.normal(size=n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [4, 32, 128])
    def test_matches_numpy_complex_input(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    def test_batched_rows(self, rng):
        x = rng.normal(size=(5, 16))
        np.testing.assert_allclose(fft(x), np.fft.fft(x, axis=-1), atol=1e-10)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(16)
        x[0] = 1.0
        np.testing.assert_allclose(fft(x), np.ones(16), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 16, 256, 1024])
    def test_conjugate_trick_inverts(self, n, rng):
        """``conj(fft(conj(X))) / n`` is the inverse transform."""
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(np.conj(fft(np.conj(fft(x)))) / n, x,
                                   atol=1e-10)

    def test_linearity(self, rng):
        x, y = rng.normal(size=(2, 64))
        np.testing.assert_allclose(fft(2.0 * x - 3.0 * y),
                                   2.0 * fft(x) - 3.0 * fft(y), atol=1e-9)

    def test_parseval(self, rng):
        x = rng.normal(size=128)
        energy_time = (np.abs(x) ** 2).sum()
        energy_freq = (np.abs(fft(x)) ** 2).sum() / 128
        assert energy_time == pytest.approx(energy_freq)


class TestFFT2:
    @pytest.mark.parametrize("shape", [(4, 4), (8, 16), (16, 8), (32, 32)])
    def test_matches_numpy(self, shape, rng):
        x = rng.normal(size=shape)
        np.testing.assert_allclose(fft2(x), np.fft.fft2(x), atol=1e-9)

    def test_batched(self, rng):
        x = rng.normal(size=(3, 8, 8))
        np.testing.assert_allclose(fft2(x), np.fft.fft2(x, axes=(-2, -1)), atol=1e-9)


class TestFFTStructure:
    def test_stage_factor_twiddle_values(self):
        factor = fft_stage_factor(4, 1)
        a, b, c, d = factor.coeffs
        np.testing.assert_allclose(a, [1.0, 1.0])
        np.testing.assert_allclose(c, [1.0, 1.0])
        np.testing.assert_allclose(b, [1.0, 1.0])  # w^0 for half=1
        np.testing.assert_allclose(d, [-1.0, -1.0])

    def test_stage_factor_unit_magnitude_twiddles(self):
        factor = fft_stage_factor(32, 8)
        np.testing.assert_allclose(np.abs(factor.coeffs[1]), np.ones(16))

    def test_fft_butterfly_dense_equals_dft_with_permutation(self):
        """B * P == F where P is bit reversal and F the DFT matrix."""
        n = 8
        dense = fft_butterfly(n).dense()
        perm = bit_reversal_permutation(n)
        p_matrix = np.eye(n)[perm]
        dft = np.fft.fft(np.eye(n), axis=0)
        np.testing.assert_allclose(dense @ p_matrix, dft, atol=1e-10)

    def test_fft_is_special_butterfly(self):
        """FFT factors use the same (4, n/2) coefficient layout as
        trainable butterflies — the unification the hardware exploits."""
        for factor in fft_butterfly(16).factors:
            assert factor.coeffs.shape == (4, 8)

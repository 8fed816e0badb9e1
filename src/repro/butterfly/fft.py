"""FFT as a special case of the butterfly matrix (paper Section II-B).

The radix-2 decimation-in-time Cooley-Tukey FFT factorizes the DFT matrix
``F_N`` into a bit-reversal permutation followed by ``log2 N`` butterfly
factors whose 2x2 pair blocks are ``[[1, w], [1, -w]]`` with twiddle
``w = exp(-2 pi i j / (2 h))``.  This module builds those factors in the
:class:`~repro.butterfly.factor.ButterflyFactor` representation, which is
the unification the paper's adaptable Butterfly Engine exploits: the same
pair-update datapath executes either trainable real coefficients or FFT
twiddles.

Everything here is implemented from scratch (no ``numpy.fft`` in the
forward path) so the hardware functional simulator has a ground truth
whose operation count we control; tests cross-check against ``numpy.fft``.
The twiddle construction and the stage applies are the vectorized kernels
of :mod:`repro.kernels.fft` — no Python loop over pairs or blocks.
"""

from __future__ import annotations

import numpy as np

from ..kernels import bit_reversal_permutation  # noqa: F401  (re-exported API)
from ..kernels import fft_forward, fft_stage_coeffs
from ..kernels.layout import stage_halves
from .factor import ButterflyFactor
from .matrix import ButterflyMatrix


def fft_stage_factor(n: int, half: int) -> ButterflyFactor:
    """Build the FFT twiddle factor for the stage with pair stride ``half``.

    Within each block of size ``2 * half``, pair ``j`` uses twiddle
    ``w_j = exp(-2 pi i j / (2 half))`` and block ``[[1, w_j], [1, -w_j]]``.
    """
    return ButterflyFactor(n, half, fft_stage_coeffs(n, half))


def fft_butterfly(n: int) -> ButterflyMatrix:
    """The DFT-without-permutation as a butterfly matrix.

    ``fft(x) == fft_butterfly(n).apply(x[bit_reversal_permutation(n)])``.
    """
    return ButterflyMatrix([fft_stage_factor(n, h) for h in stage_halves(n)])


def fft(x: np.ndarray) -> np.ndarray:
    """Radix-2 FFT along the last axis via the butterfly factorization.

    Uses the specialized twiddle kernel (one complex multiply per pair
    instead of the general four) — see
    :func:`repro.kernels.fft_forward`.
    """
    return fft_forward(x)


def fft2(x: np.ndarray) -> np.ndarray:
    """2D FFT over the last two axes using the 1D butterfly FFT twice.

    This is the computation of the paper's Fourier (FBfly) block: a 1D FFT
    along the hidden dimension followed by a 1D FFT along the sequence
    dimension (the order does not change the result).
    """
    x = np.asarray(x)
    step1 = fft(x)
    step2 = fft(np.swapaxes(step1, -1, -2))
    return np.swapaxes(step2, -1, -2)


def fourier_mix(x: np.ndarray) -> np.ndarray:
    """FNet token mixing: the real part of the 2D FFT of a real input."""
    return fft2(x).real

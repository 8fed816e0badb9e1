"""FFT as a special case of the butterfly matrix (paper Section II-B).

The radix-2 decimation-in-time Cooley-Tukey FFT factorizes the DFT matrix
``F_N`` into a bit-reversal permutation followed by ``log2 N`` butterfly
factors whose 2x2 pair blocks are ``[[1, w], [1, -w]]`` with twiddle
``w = exp(-2 pi i j / (2 h))``.  This module builds those factors in the
:class:`~repro.butterfly.factor.ButterflyFactor` representation, which is
the unification the paper's adaptable Butterfly Engine exploits: the same
pair-update datapath executes either trainable real coefficients or FFT
twiddles.

The hardware functional simulator's Butterfly Engine runs its FFT
passes from these factors, and its tests cross-check them against
``numpy.fft``.  The twiddle construction is the vectorized kernel of
:mod:`repro.kernels.fft` — no Python loop over pairs or blocks.
"""

from __future__ import annotations

from ..kernels import bit_reversal_permutation  # noqa: F401  (re-exported API)
from ..kernels import fft_stage_coeffs
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

    ``np.fft.fft(x) == fft_butterfly(n).apply(x[bit_reversal_permutation(n)])``
    up to rounding.
    """
    return ButterflyMatrix([fft_stage_factor(n, h) for h in stage_halves(n)])

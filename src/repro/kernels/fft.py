"""FFT twiddle kernels — the butterfly stage special case.

The radix-2 decimation-in-time FFT is the butterfly product whose 2x2
pair blocks are ``[[1, w], [1, -w]]`` with twiddle ``w = exp(-2 pi i j /
(2 half))`` for pair position ``j`` — the reason the paper's adaptable
Butterfly Unit can execute either workload on the same four multipliers
(Fig. 7c).  This module provides the vectorized twiddle construction, used by
:mod:`repro.butterfly.fft` to build coefficient arrays for the hardware
model — no Python loop over pairs or blocks.
"""

from __future__ import annotations

import numpy as np

from .layout import check_stage


def fft_twiddles(half: int) -> np.ndarray:
    """Per-pair twiddles ``w_j = exp(-2 pi i j / (2 half))``, shape ``(half,)``.

    Every size-``2*half`` block of a stage uses the same ``half`` twiddles,
    so this is all the state an FFT stage needs.
    """
    j = np.arange(half)
    return np.exp(-2j * np.pi * j / (2 * half))


def fft_stage_coeffs(n: int, half: int) -> np.ndarray:
    """FFT stage as a pair-major ``(4, n/2)`` coefficient array.

    Rows are ``(a, b, c, d) = (1, w, 1, -w)`` with the twiddle vector
    tiled across the ``n / (2 half)`` blocks — the layout consumed by the
    general butterfly kernels and the hardware Butterfly Engine.
    """
    check_stage(n, half)
    nblocks = n // (2 * half)
    w = np.tile(fft_twiddles(half), nblocks)
    coeffs = np.empty((4, n // 2), dtype=np.complex128)
    coeffs[0] = 1.0
    coeffs[1] = w
    coeffs[2] = 1.0
    coeffs[3] = -w
    return coeffs

"""Butterfly matrices, factors, and the FFT-as-butterfly unification."""

from .approx import (
    FitResult,
    approximation_error,
    compare_with_truncated_svd,
    fit_butterfly,
)
from .factor import ButterflyFactor, num_stages, pair_indices, stage_halves
from .fft import (
    bit_reversal_permutation,
    fft_butterfly,
    fft_stage_factor,
)
from .matrix import ButterflyMatrix, butterfly_flops

__all__ = [
    "ButterflyFactor",
    "ButterflyMatrix",
    "FitResult",
    "approximation_error",
    "compare_with_truncated_svd",
    "fit_butterfly",
    "bit_reversal_permutation",
    "butterfly_flops",
    "fft_butterfly",
    "fft_stage_factor",
    "num_stages",
    "pair_indices",
    "stage_halves",
]

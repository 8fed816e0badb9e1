"""Butterfly factor matrices (Section II-B of the paper).

A butterfly matrix ``W`` of size ``N = 2^k`` is a product of ``k`` sparse
*butterfly factor* matrices::

    W = B_N @ diag(B_{N/2}, B_{N/2}) @ ... @ diag(B_2, ..., B_2)

Each factor at *block size* ``2h`` is block-diagonal with ``N / 2h`` blocks;
every block is a 2x2 matrix of diagonal matrices of size ``h``::

    [ D1  D2 ]
    [ D3  D4 ]

so within each block, element ``j`` of the top half pairs with element ``j``
of the bottom half and they are mixed by a trainable 2x2 matrix
``[[a_j, b_j], [c_j, d_j]]``.  Across the whole factor there are ``N/2``
such pairs; we store their coefficients as an array of shape ``(4, N/2)``
ordered ``(a, b, c, d)``, pair index ``p = block * h + j``.

The FFT's twiddle stages are the special case ``a = 1, b = w, c = 1,
d = -w`` (see :mod:`repro.butterfly.fft`), which is exactly why the paper's
accelerator can run both with one engine.

All index geometry and the apply/materialize computations delegate to the
shared kernel layer (:mod:`repro.kernels`), the single implementation also
used by :mod:`repro.nn` and verified against the hardware functional model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels as _kernels
from ..kernels import num_stages, pair_indices, stage_halves  # noqa: F401  (re-exported API)


@dataclass
class ButterflyFactor:
    """One butterfly factor matrix, stored as per-pair 2x2 coefficients.

    Attributes:
        n: overall matrix size (power of two).
        half: pair stride; the factor's diagonal blocks have size ``2*half``.
        coeffs: array ``(4, n//2)`` of pair coefficients ``(a, b, c, d)``.
            dtype may be real (trainable butterfly) or complex (FFT twiddles).
    """

    n: int
    half: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _kernels.check_stage(self.n, self.half)
        self.coeffs = np.asarray(self.coeffs)
        if self.coeffs.shape != (4, self.n // 2):
            raise ValueError(
                f"coeffs must have shape (4, {self.n // 2}), got {self.coeffs.shape}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls, n: int, half: int, rng: np.random.Generator, scale: float | None = None
    ) -> "ButterflyFactor":
        """Random factor; default scale keeps the product's variance near 1.

        Each output of a stage is ``a x0 + b x1`` with two terms, so drawing
        entries from ``N(0, 1/2)`` keeps per-stage output variance at the
        input variance, and hence the full ``log2 n``-stage product stable.
        """
        if scale is None:
            scale = 1.0 / np.sqrt(2.0)
        coeffs = rng.normal(0.0, scale, size=(4, n // 2))
        return cls(n, half, coeffs)

    # ------------------------------------------------------------------
    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the factor to the last axis of ``x`` (vectorized kernel)."""
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise ValueError(f"expected last dim {self.n}, got {x.shape[-1]}")
        return _kernels.stage_forward(x, self.coeffs, self.half)

    def dense(self) -> np.ndarray:
        """Expand the factor to a dense ``n x n`` matrix."""
        return _kernels.stage_dense(self.coeffs, self.n, self.half)

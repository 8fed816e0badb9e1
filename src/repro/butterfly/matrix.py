"""Full butterfly matrices as products of butterfly factors.

Application delegates to the shared kernel layer: the fused grouped
kernel (:mod:`repro.kernels.grouped`) applies the complete ladder, real
or complex (FFT twiddles), as a few batched matmuls, and dense
materialization multiplies the same kernel's chunk blocks out in closed
form instead of multiplying ``log2 n`` sparse factors.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import kernels as _kernels
from .factor import ButterflyFactor, num_stages, stage_halves


class ButterflyMatrix:
    """A size-``n`` butterfly matrix, the product of ``log2 n`` factors.

    ``factors`` are stored in *application order*: ``factors[0]`` is the
    block-size-2 factor (rightmost in the matrix product) and
    ``factors[-1]`` the full-size factor.  ``apply`` runs in
    ``O(n log n)`` per vector instead of the dense ``O(n^2)``.
    """

    def __init__(self, factors: List[ButterflyFactor]) -> None:
        if not factors:
            raise ValueError("butterfly matrix needs at least one factor")
        n = factors[0].n
        expected = stage_halves(n)
        got = [f.half for f in factors]
        if got != expected:
            raise ValueError(
                f"factors must cover stages {expected} in application order, got {got}"
            )
        if any(f.n != n for f in factors):
            raise ValueError("all factors must share the same size")
        self.n = n
        self.factors = factors

    # ------------------------------------------------------------------
    @classmethod
    def random(cls, n: int, rng: Optional[np.random.Generator] = None) -> "ButterflyMatrix":
        rng = rng or np.random.default_rng()
        return cls([ButterflyFactor.random(n, h, rng) for h in stage_halves(n)])

    # ------------------------------------------------------------------
    def apply(self, x: np.ndarray) -> np.ndarray:
        """Multiply ``x`` (last axis of size n) by the butterfly matrix.

        Runs on the unified kernel layer's grouped kernel, which fuses
        stage runs into batched matmuls.
        """
        out, _ = _kernels.butterfly_apply(
            np.asarray(x),
            [f.coeffs for f in self.factors],
            [f.half for f in self.factors],
            need_ctx=False,
        )
        return out

    def dense(self) -> np.ndarray:
        """Expand to a dense matrix: ``B_n @ ... @ B_2``.

        Computed in closed form from the fused kernel's chunk blocks
        (:func:`repro.kernels.dense_block`): one path joins each input to
        each output, so every entry is a product of one coefficient per
        chunk — ``O(n^2)`` multiplies instead of ``O(n^3)`` sparse factor
        multiplies.  The result keeps the factors' dtype (e.g. float32
        under the reduced-precision policy, complex for FFT twiddle
        matrices).
        """
        dtype = np.result_type(*[f.coeffs.dtype for f in self.factors])
        block = _kernels.dense_block([f.coeffs for f in self.factors], dtype)
        return np.ascontiguousarray(block.T)

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Trainable scalars: ``2 n log2 n`` (vs ``n^2`` dense)."""
        return sum(f.coeffs.size for f in self.factors)

    @property
    def depth(self) -> int:
        return len(self.factors)


def butterfly_flops(n: int, rows: int = 1) -> int:
    """FLOPs (mults + adds) of a fast butterfly apply on ``rows`` vectors.

    Each of the ``log2 n`` stages performs ``n/2`` 2x2 pair updates, each
    costing 4 multiplications and 2 additions.
    """
    return rows * num_stages(n) * (n // 2) * 6

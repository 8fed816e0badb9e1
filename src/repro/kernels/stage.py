"""Single-stage butterfly kernels: vectorized forward, VJP, materialize.

One butterfly stage with pair stride ``half`` applies, to every pair
``(x_top, x_bot)`` (see :mod:`repro.kernels.layout`), the trainable 2x2
block stored pair-major in a ``(4, n/2)`` coefficient array::

    [ y_top ]   [ a  b ] [ x_top ]
    [ y_bot ] = [ c  d ] [ x_bot ]

This is exactly the pair-operation the paper's adaptable Butterfly Unit
executes with its four physical multipliers (Fig. 7b), and the FFT
twiddle stage is the special case ``(a, b, c, d) = (1, w, 1, -w)``
(:mod:`repro.kernels.fft`).

All kernels here are *stride-vectorized*: the ``(..., n)`` input is
viewed as ``(..., nblocks, 2, half)`` so the whole stage is a handful of
broadcast numpy operations — no Python loop over pairs.  These kernels
are the shared reference implementation used by
:class:`repro.butterfly.factor.ButterflyFactor` and the hardware
functional model's parity checks; the multi-stage hot path additionally fuses
stages into batched matmuls in :mod:`repro.kernels.grouped`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .layout import check_stage, pair_indices


def _check(n: int, coeffs: np.ndarray, half: int) -> None:
    check_stage(n, half)
    if coeffs.shape != (4, n // 2):
        raise ValueError(
            f"coeffs must have shape (4, {n // 2}), got {coeffs.shape}"
        )


def _stage_views(x: np.ndarray, coeffs: np.ndarray, half: int):
    n = x.shape[-1]
    _check(n, coeffs, half)
    nblocks = n // (2 * half)
    lead = x.shape[:-1]
    xr = x.reshape(*lead, nblocks, 2, half)
    abcd = coeffs.reshape(4, nblocks, half)
    return lead, nblocks, xr, abcd


def stage_forward(x: np.ndarray, coeffs: np.ndarray, half: int) -> np.ndarray:
    """Apply one stage to the last axis of ``x``; real or complex coeffs."""
    x = np.asarray(x)
    coeffs = np.asarray(coeffs)
    lead, nblocks, xr, (a, b, c, d) = _stage_views(x, coeffs, half)
    x0 = xr[..., 0, :]
    x1 = xr[..., 1, :]
    out_dtype = np.result_type(x.dtype, coeffs.dtype)
    out = np.empty((*lead, nblocks, 2, half), dtype=out_dtype)
    np.multiply(a, x0, out=out[..., 0, :])
    out[..., 0, :] += b * x1
    np.multiply(c, x0, out=out[..., 1, :])
    out[..., 1, :] += d * x1
    return out.reshape(*lead, x.shape[-1])


def stage_vjp(
    grad: np.ndarray, x: np.ndarray, coeffs: np.ndarray, half: int
) -> Tuple[np.ndarray, np.ndarray]:
    """VJP of :func:`stage_forward` for real coefficients.

    Returns ``(grad_x, grad_coeffs)`` where ``grad_coeffs`` has the same
    ``(4, n/2)`` pair-major layout as ``coeffs``.  The input gradient is
    the transposed stage (swap ``b``/``c``); the coefficient gradient is
    a batch-reduced outer product per pair.
    """
    grad = np.asarray(grad)
    x = np.asarray(x)
    coeffs = np.asarray(coeffs)
    lead, nblocks, xr, (a, b, c, d) = _stage_views(x, coeffs, half)
    n = x.shape[-1]
    x0 = xr[..., 0, :]
    x1 = xr[..., 1, :]
    gr = grad.reshape(*lead, nblocks, 2, half)
    g0 = gr[..., 0, :]
    g1 = gr[..., 1, :]
    gx = np.empty_like(gr)
    np.multiply(a, g0, out=gx[..., 0, :])
    gx[..., 0, :] += c * g1
    np.multiply(b, g0, out=gx[..., 1, :])
    gx[..., 1, :] += d * g1
    batch_axes = tuple(range(len(lead)))
    gcoeffs = np.empty_like(coeffs)
    gcoeffs[0] = (g0 * x0).sum(axis=batch_axes).reshape(-1)
    gcoeffs[1] = (g0 * x1).sum(axis=batch_axes).reshape(-1)
    gcoeffs[2] = (g1 * x0).sum(axis=batch_axes).reshape(-1)
    gcoeffs[3] = (g1 * x1).sum(axis=batch_axes).reshape(-1)
    return gx.reshape(*lead, n), gcoeffs


def stage_dense(coeffs: np.ndarray, n: int, half: int) -> np.ndarray:
    """Materialize one stage as a dense ``n x n`` matrix (vectorized scatter)."""
    coeffs = np.asarray(coeffs)
    _check(n, coeffs, half)
    pairs = pair_indices(n, half)
    top, bot = pairs[:, 0], pairs[:, 1]
    mat = np.zeros((n, n), dtype=coeffs.dtype)
    mat[top, top] = coeffs[0]
    mat[top, bot] = coeffs[1]
    mat[bot, top] = coeffs[2]
    mat[bot, bot] = coeffs[3]
    return mat

"""Index geometry of butterfly stages (the paper's S2P memory layout).

A butterfly stage with *pair stride* ``half`` partitions the ``n``
elements of a vector into ``n/2`` pairs ``(i, i + half)`` inside
block-diagonal blocks of size ``2 * half``; pair ``p = block * half + j``
couples positions ``block * 2 * half + j`` and ``block * 2 * half + half
+ j``.  The coefficient arrays used throughout the repo are stored in
exactly this *pair-major* order: entry ``p`` of a ``(4, n/2)`` array is
the 2x2 block of pair ``p``.

This is also the access pattern the paper's Serial-to-Parallel (S2P)
butterfly memory layout is built around: the accelerator stripes element
``i`` across ``2 * pbu`` banks so that the two operands of every pair
land in different banks for *every* stage stride, letting ``pbu``
Butterfly Units read ``2 * pbu`` operands per cycle without conflicts
(see :mod:`repro.hardware.functional.memory` and
:mod:`repro.hardware.functional.engine`, which consume
:func:`pair_indices` to schedule those accesses).  The software kernels
in this package exploit the same regularity: because the pair geometry is
an affine function of ``(block, j)``, every gather/scatter below is a
closed-form numpy indexing expression — there is no Python loop over
pairs anywhere in the kernel layer.
"""

from __future__ import annotations

import numpy as np


def check_power_of_two(n: int) -> None:
    """Raise unless ``n`` is a power of two >= 2."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"butterfly size must be a power of two >= 2, got {n}")


def next_power_of_two(n: int) -> int:
    """The smallest power of two ``>= n`` (``n >= 1``): the butterfly
    size that covers a dimension of ``n``."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    p = 1
    while p < n:
        p *= 2
    return p


def stage_halves(n: int) -> list:
    """Pair strides of each stage in application order: ``[1, 2, ..., n/2]``.

    The rightmost factor in the matrix product (block size 2, ``half=1``)
    is applied first.
    """
    check_power_of_two(n)
    return [1 << s for s in range(n.bit_length() - 1)]


def num_stages(n: int) -> int:
    """Number of butterfly factors for size ``n`` (``log2 n``)."""
    check_power_of_two(n)
    return n.bit_length() - 1


def check_stage(n: int, half: int) -> None:
    """Validate that ``half`` is a legal pair stride for size ``n``."""
    check_power_of_two(n)
    if half < 1 or half >= n or n % (2 * half) != 0:
        raise ValueError(f"invalid stage half={half} for size {n}")


def pair_indices(n: int, half: int) -> np.ndarray:
    """The ``(n/2, 2)`` array of element index pairs touched by a stage.

    Row ``p = block * half + j`` is ``(block * 2 * half + j,
    block * 2 * half + half + j)`` — computed in closed form, no loop.
    """
    check_stage(n, half)
    nblocks = n // (2 * half)
    top = (np.arange(nblocks, dtype=np.int64)[:, None] * (2 * half)
           + np.arange(half, dtype=np.int64)[None, :]).reshape(-1)
    return np.stack([top, top + half], axis=1)


def pair_index_of(i: np.ndarray, half: int) -> np.ndarray:
    """Coefficient index ``p`` of the pair containing element index ``i``.

    Works elementwise on arrays: ``p = (i >> log2(2*half)) * half +
    (i & (half - 1))``.  Inverse of :func:`pair_indices` up to top/bottom.
    """
    i = np.asarray(i)
    return (i // (2 * half)) * half + (i % half)


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Indices that reorder ``x`` into bit-reversed order (vectorized).

    Builds the permutation with ``log2 n`` shift/mask passes over a
    single index vector rather than a per-element Python loop.  ``n = 1``
    is allowed (the empty permutation of a single element).
    """
    if n != 1:
        check_power_of_two(n)
    bits = n.bit_length() - 1
    v = np.arange(n, dtype=np.int64)
    perm = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        perm = (perm << 1) | (v & 1)
        v >>= 1
    return perm

"""Floating-point dtype policy for the kernel layer.

The reproduction computes in ``float64`` by default (so golden-parity
tests against dense materialization and ``numpy.fft`` hold to tight
tolerances), but every kernel also runs in ``float32``, which roughly
halves memory traffic and more than doubles BLAS throughput on the
grouped matmul path.  The paper's accelerator itself uses even narrower
arithmetic, so ``float32`` software execution remains a strict precision
superset of the hardware.

The policy is a process-global default consumed by
:func:`repro.nn.tensor._as_array` (every :class:`~repro.nn.tensor.Tensor`
creation) and by kernel entry points that must invent a dtype.  Opt in
with::

    from repro.kernels import set_default_dtype, default_dtype

    set_default_dtype("float32")          # global
    with default_dtype("float32"):        # scoped
        ...
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Tuple, Union

import numpy as np

DtypeLike = Union[str, type, np.dtype]

_ALLOWED = (np.float32, np.float64)

_default_dtype: np.dtype = np.dtype(np.float64)


def _resolve(dtype: DtypeLike) -> np.dtype:
    dt = np.dtype(dtype)
    if dt not in [np.dtype(a) for a in _ALLOWED]:
        raise ValueError(
            f"default dtype must be float32 or float64, got {dt}"
        )
    return dt


def get_default_dtype() -> np.dtype:
    """The current global floating-point dtype (float64 unless opted in)."""
    return _default_dtype


def set_default_dtype(dtype: DtypeLike) -> np.dtype:
    """Set the global dtype policy; returns the previous dtype."""
    global _default_dtype
    previous = _default_dtype
    _default_dtype = _resolve(dtype)
    return previous


@contextlib.contextmanager
def default_dtype(dtype: DtypeLike) -> Iterator[np.dtype]:
    """Context manager scoping :func:`set_default_dtype`."""
    previous = set_default_dtype(dtype)
    try:
        yield get_default_dtype()
    finally:
        set_default_dtype(previous)


def mask_fill_value(dtype: DtypeLike) -> float:
    """Additive-bias fill for masked attention scores, dtype-aware.

    Half the dtype's most negative finite value: large enough that
    ``exp(fill + score)`` underflows to exactly 0 for any realistic
    score, whether or not the row max is subtracted first (a hard-coded
    ``-1e9`` leaves masked keys with tiny nonzero probability once
    ``exp`` precision is exhausted), yet far enough
    from the overflow edge that adding a finite score — or stacking the
    causal and padding biases — stays finite in both dtypes.
    """
    return float(np.finfo(np.dtype(dtype)).min / 2)


#: ``log2(e)``, rounded to double: ``exp(s) == exp2(s * LOG2E)``.
LOG2E = 1.4426950408889634


def softmax_exp(dtype: DtypeLike) -> Tuple[np.ufunc, float]:
    """``(exp, factor)`` of a softmax over ``dtype`` scores: it runs
    ``exp(s * factor)`` for ``e^s``.

    float32 takes ``(np.exp2, LOG2E)``: its ``exp2`` loop costs half of
    ``exp``'s per element, and the factor folds into a multiply the
    caller already makes (the scale on the queries).  ``exp2(s * LOG2E)``
    over- and underflows at the same natural scores as ``exp(s)``.
    float64 keeps ``(np.exp, 1.0)``: the folded factor costs ``|s| *
    eps`` of a score, more than its 1e-12 oracles allow on rows lifted
    to ``|s| ~ 1e3``, for ~15% of the pass.
    """
    if np.dtype(dtype) == np.float32:
        return np.exp2, LOG2E
    return np.exp, 1.0

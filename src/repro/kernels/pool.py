"""The one per-thread, grow-only, byte-capped buffer pool.

Large NumPy temporaries go back to the OS when they are freed (glibc
trims the heap top and unmaps big chunks), so a hot path that allocates
them again on every call pays a page fault per 4 KB it touches.  A
:class:`ScratchPool` hands the same memory back instead.  It backs the
grouped butterfly plans' scratch (:meth:`GroupedPlan.scratch
<repro.kernels.grouped.GroupedPlan.scratch>`), the stored-weight GEMM's
dequant block, the kernels' call-local temporaries (:data:`SCRATCH`:
the attention score tile, GELU's chain buffer, ...) and an inference
program's activation workspace (:mod:`repro.models.program`).

The rule, everywhere:

* **Per thread.**  Buffers live in a ``threading.local``: the threaded
  backend's workers, or two threads forwarding one model, never see each
  other's memory.
* **Grow-only per ``(tag, dtype)``.**  Callers of different shapes take
  turns on one tag (an FFN's up and down ladders, a long and a short
  batch), so a buffer is replaced only by a larger one.
* **Capped.**  A request that would take the thread's total past
  :attr:`ScratchPool.MAX_BYTES` is served by an ordinary, garbage-
  collected allocation, so a pool never pins the largest batch it ever
  saw past the budget.
* **Never escapes.**  What :meth:`ScratchPool.take` returns is valid
  until the same thread takes the same tag again; anything handed back
  to a caller or saved in a context is allocated normally.

:func:`check_out` is the other half of owning buffers: the one rule for
the ``out=`` a caller hands a kernel.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..telemetry import counter_inc


class ScratchPool:
    """Uninitialized reusable buffers keyed by ``(tag, dtype)``."""

    #: Budget per pool *per thread*.
    MAX_BYTES = 64 << 20

    def __init__(self, counter: str = "kernels_scratch") -> None:
        self._tls = threading.local()
        self._hits = f"{counter}_hits_total"
        self._misses = f"{counter}_misses_total"

    def take(self, tag, shape: tuple, dtype) -> np.ndarray:
        """A C-contiguous ``shape`` view of this thread's ``tag`` buffer."""
        tls = self._tls
        pool = getattr(tls, "pool", None)
        if pool is None:
            pool = tls.pool = {}
            tls.bytes = 0
        dtype = np.dtype(dtype)
        key = (tag, dtype)
        buf = pool.get(key)
        size = math.prod(shape)
        if buf is not None and buf.size >= size:
            counter_inc(self._hits)
            return buf[:size].reshape(shape)
        counter_inc(self._misses)
        # A cached buffer that is too small is useless for this tag now:
        # evict it up front so it cannot stay pinned if the new request
        # ends up over budget.
        if buf is not None:
            del pool[key]
            tls.bytes -= buf.nbytes
        if tls.bytes + size * dtype.itemsize > self.MAX_BYTES:
            return np.empty(shape, dtype=dtype)
        buf = pool[key] = np.empty(size, dtype=dtype)
        tls.bytes += buf.nbytes
        return buf.reshape(shape)


#: The kernels' call-local temporaries (one pool, distinct tags).
SCRATCH = ScratchPool()


def check_out(out: np.ndarray, shape: tuple, dtype, *inputs: np.ndarray) -> None:
    """Refuse an ``out=`` that is not the result's shape and dtype,
    C-contiguous, or that shares memory with one of ``inputs``."""
    if not isinstance(out, np.ndarray):
        raise ValueError(f"out must be an ndarray, got {type(out).__name__}")
    if (out.shape != tuple(shape) or out.dtype != dtype
            or not out.flags.c_contiguous):
        raise ValueError(
            f"out must be a C-contiguous {tuple(shape)} {np.dtype(dtype)} "
            f"array, got {out.shape} {out.dtype}"
            f"{'' if out.flags.c_contiguous else ' (not contiguous)'}"
        )
    for array in inputs:
        if np.may_share_memory(out, array):
            raise ValueError("out must not alias an input")

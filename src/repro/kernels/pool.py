"""The one per-thread, grow-only, byte-capped buffer pool.

Large NumPy temporaries go back to the OS when they are freed (glibc
trims the heap top and unmaps big chunks), so a hot path that allocates
them again on every call pays a page fault per 4 KB it touches.  A
:class:`ScratchPool` hands the same memory back instead.  It backs the
grouped butterfly plans' scratch (:meth:`GroupedPlan.scratch
<repro.kernels.grouped.GroupedPlan.scratch>`), the stored-weight GEMM's
dequant block, the kernels' call-local temporaries (:data:`SCRATCH`:
the attention score tile, GELU's chain buffer, ...), an inference
program's activation workspace (:mod:`repro.models.program`) and a
training step's arrays (:data:`STEP`).

The rule, everywhere:

* **Per thread.**  Buffers live in a ``threading.local``: two threads
  forwarding one model (a ``ServerThread`` beside its caller) never see
  each other's memory.  The kernels run on the caller's thread, except
  attention's items, which its helper lane may run from that lane's own
  buffers; multi-core serving is ``--workers N`` processes.
* **Grow-only per ``(tag, dtype)``.**  Callers of different shapes take
  turns on one tag (an FFN's up and down ladders, a long and a short
  batch), so a buffer is replaced only by a larger one.
* **Capped, or scoped.**  A request that would take the thread's total
  past :attr:`ScratchPool.MAX_BYTES` is served by an ordinary, garbage-
  collected allocation, so a pool never pins the largest batch it ever
  saw past the budget.  A pool built ``held=False`` keeps buffers only
  inside :meth:`ScratchPool.held` and drops them all when it ends, so it
  takes no cap.
* **Cache-line aligned.**  A buffer starts on a 64-byte line, where
  numpy's allocator gives 16 bytes: from there three in four of an
  AVX-512 loop's 64-byte loads and stores straddle two lines, and how
  many of a buffer's accesses split depends on what the heap held
  before it (one int8 decode step moved by ~10% with it).
* **Valid until the tag is taken again.**  What :meth:`ScratchPool.take`
  returns belongs to its caller until the same thread takes the same tag
  again.  A kernel handed a ``take`` (a :meth:`ScratchPool.prefixed`, or
  :func:`fresh`, which allocates) draws its result, what its VJP context
  saves and, through the context, the VJP's outputs from it, under tags
  of its own: a context lives in its caller's buffers, which the caller
  leaves untouched until the VJP.

:func:`check_out` is the other half of owning buffers: the one rule for
the ``out=`` a caller hands a kernel.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from ..telemetry import counter_inc


#: Bytes a pooled buffer is aligned to: one cache line.
CACHE_LINE = 64


def _aligned(size: int, dtype: np.dtype) -> np.ndarray:
    """An uninitialized 1-D buffer of ``size`` elements starting on a
    :data:`CACHE_LINE`."""
    raw = np.empty(size * dtype.itemsize + CACHE_LINE, np.uint8)
    start = -raw.__array_interface__["data"][0] % CACHE_LINE
    return raw[start:start + size * dtype.itemsize].view(dtype)


class ScratchPool:
    """Uninitialized reusable buffers keyed by ``(tag, dtype)``.

    A pool built ``held=False`` keeps buffers only inside :meth:`held`,
    without a cap, and allocates outside it.
    """

    #: Budget per always-held pool *per thread*.
    MAX_BYTES = 64 << 20

    def __init__(self, counter: str = "kernels_scratch", held: bool = True) -> None:
        self._tls = threading.local()
        self._held = held
        self._hits = f"{counter}_hits_total"
        self._misses = f"{counter}_misses_total"

    def take(self, tag, shape: tuple, dtype) -> np.ndarray:
        """A C-contiguous ``shape`` view of this thread's ``tag`` buffer
        (cache-line aligned, unless the budget sends it to the heap)."""
        tls = self._tls
        pool = getattr(tls, "pool", None)
        if pool is None:
            if not self._held:
                return np.empty(shape, dtype)
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
        if self._held and tls.bytes + size * dtype.itemsize > self.MAX_BYTES:
            return np.empty(shape, dtype=dtype)
        buf = pool[key] = _aligned(size, dtype)
        tls.bytes += buf.nbytes
        return buf.reshape(shape)

    def prefixed(self, prefix):
        """A ``take(tag, shape, dtype)`` over this pool's ``(prefix, tag)``
        buffers: one caller's namespace.  Outside :meth:`held`, a pool
        built ``held=False`` hands out :func:`fresh` itself."""
        if not self._held and getattr(self._tls, "pool", None) is None:
            return fresh
        return lambda tag, shape, dtype: self.take((prefix, tag), shape, dtype)

    @contextlib.contextmanager
    def held(self):
        """Keep this thread's buffers until the block ends, then drop them."""
        tls = self._tls
        saved = getattr(tls, "pool", None), getattr(tls, "bytes", 0)
        tls.pool, tls.bytes = {}, 0
        try:
            yield
        finally:
            tls.pool, tls.bytes = saved


#: The kernels' call-local temporaries (one pool, distinct tags).
SCRATCH = ScratchPool()


def fresh(tag, shape, dtype=float) -> np.ndarray:
    """The allocating ``take``: a new array, whatever the tag."""
    return np.empty(shape, dtype)


#: The arrays of a training step (see :mod:`repro.models.encode_program`):
#: kept while ``Trainer.fit`` holds it, allocated outside a fit.
STEP = ScratchPool("training_step", held=False)


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

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

* **Per thread.**  Buffers live in a ``threading.local``: two threads
  forwarding one model (a ``ServerThread`` beside its caller) never see
  each other's memory.  The kernels themselves run on the caller's
  thread; in-process parallelism is BLAS's own pool, and multi-core
  serving is ``--workers N`` processes.
* **Grow-only per ``(tag, dtype)``.**  Callers of different shapes take
  turns on one tag (an FFN's up and down ladders, a long and a short
  batch), so a buffer is replaced only by a larger one.
* **Capped.**  A request that would take the thread's total past
  :attr:`ScratchPool.MAX_BYTES` is served by an ordinary, garbage-
  collected allocation, so a pool never pins the largest batch it ever
  saw past the budget.
* **Never escapes.**  What :meth:`ScratchPool.take` returns is valid
  until the same thread takes the same tag again; anything handed back
  to a caller or saved in a context is a :class:`Recycler`'s.

:func:`check_out` is the other half of owning buffers: the one rule for
the ``out=`` a caller hands a kernel; a :class:`Recycler`, what a pool
cannot own: the arrays a training step returns.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading

import numpy as np

from ..telemetry import counter_inc, gauge_set


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


def _unheld(bufs: list, refs: int):
    """The arrays of ``bufs`` whose references ``refs`` accounts for."""
    return (buf for buf in bufs if sys.getrefcount(buf) == refs)


#: What ``sys.getrefcount`` reads there for an array only its list holds.
_FREE_REFS = next(r for r in range(8) if next(_unheld([np.empty(0)], r), None) is not None)
_HITS = "training_recycle_hits_total"
_MISSES = "training_recycle_misses_total"
_BYTES = "training_recycle_bytes"


class Recycler(threading.local):
    """In :meth:`scope`, :meth:`empty` hands back an array of the dtype and
    size this thread allocated before that nobody refers to any more (a
    view keeps its owner in ``.base``), or allocates one and keeps it; so a
    step that repeats the last reuses its memory.  A request of a dtype and
    size it keeps none of first drops the free arrays of every one not
    asked for since :meth:`next_step`, so a step of another shape (a ragged
    last batch) replaces the last one's arrays instead of adding to them.
    Outside a scope it is ``np.empty``.  Every attribute is per thread."""

    # {(dtype, size): [arrays]} inside a scope.  A class default: reading
    # it is not the AttributeError a missing per-thread attribute raises.
    _free = None

    @contextlib.contextmanager
    def scope(self):
        """Recycle on this thread until the block ends.  Not re-entrant: a
        nested scope ends the outer one's recycling."""
        self._free, self._asked = {}, set()  # the keys asked for this step
        try:
            yield
        finally:
            self._free = None
            gauge_set(_BYTES, 0)

    def next_step(self) -> None:
        """Start a step: forget which dtypes and sizes were asked for."""
        self._asked = set()

    def empty(self, shape, dtype=float) -> np.ndarray:
        free = self._free
        if free is None:
            return np.empty(shape, dtype)
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        key = (np.dtype(dtype), size)
        self._asked.add(key)
        bufs = free.setdefault(key, [])
        buf = next(_unheld(bufs, _FREE_REFS), None)
        counter_inc(_MISSES if buf is None else _HITS)
        if buf is None:
            for other, kept in free.items():
                if not bufs and other not in self._asked:
                    drop = {id(old) for old in _unheld(kept, _FREE_REFS)}
                    kept[:] = [old for old in kept if id(old) not in drop]
            buf = np.empty(size, dtype)
            bufs.append(buf)
            gauge_set(_BYTES, sum(old.nbytes for kept in free.values() for old in kept))
        return buf.reshape(shape)

    def out(self, *arrays: np.ndarray):
        """The ``out=`` of a ufunc over ``arrays``: ``None`` outside a scope."""
        if self._free is None:
            return None
        return self.empty(np.broadcast(*arrays).shape, np.result_type(*arrays))

    def copy(self, array: np.ndarray, dtype=None) -> np.ndarray:
        """``array`` cast to ``dtype`` in a C-contiguous :meth:`empty` array."""
        out = self.empty(array.shape, array.dtype if dtype is None else dtype)
        np.copyto(out, array)
        return out


#: The arrays of a ``Trainer.fit`` step (see :mod:`repro.nn.tensor`).
RECYCLER = Recycler()


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

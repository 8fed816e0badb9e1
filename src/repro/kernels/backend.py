"""Pluggable kernel execution backends: serial and multi-threaded.

Every hot path in the kernel layer — the fused grouped butterfly GEMMs
(:mod:`repro.kernels.grouped`), the blocked dequant GEMM
(:mod:`repro.kernels.quant`), query-tiled attention
(:mod:`repro.kernels.attention`) and the fused training projections
(:mod:`repro.kernels.fused`) — used to run single-threaded.  This module
extracts the *execution strategy* out of those kernels into an explicit
:class:`KernelBackend` object with two primitives:

* :meth:`KernelBackend.matmul` — a batched/blocked GEMM that a backend
  may partition across workers (disjoint row blocks of the output, so
  results are bit-identical to one serial ``np.matmul`` call: each
  row-block GEMM performs exactly the accumulation the serial call
  performs for those rows);
* :meth:`KernelBackend.map` — a parallel map over independent work items
  (row shards of an attention batch, output-channel spans of a
  quantized GEMM).  Items never share mutable scratch: per-thread
  scratch pools in the kernel layer keep workers race-free.

Two implementations are registered:

``serial``
    The default.  Executes inline; byte-for-byte the pre-backend
    behavior, and the bit-parity oracle for everything else.

``threaded``
    Partitions work across a shared :class:`concurrent.futures.
    ThreadPoolExecutor`.  NumPy releases the GIL inside BLAS, so
    row-block sharding of GEMM-bound kernels is a real multi-core win;
    worker count defaults to the machine's CPU count (overridable with
    ``REPRO_KERNEL_WORKERS`` or per instance).  On a single-core
    machine the backend degrades to inline execution.

Selection is a process-global (thread-local-aware callers should scope
with :func:`use_backend`)::

    from repro.kernels import use_backend, set_backend

    set_backend("threaded")              # global
    with use_backend("threaded"):        # scoped
        model(tokens)

Backends are *execution* strategies only — they never change numerics.
The int8/fp16 stored formats (:mod:`repro.kernels.quant`) are orthogonal
and compose with either backend.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..faults import fault_point
from ..telemetry import counter_inc, gauge_set

#: Minimum elements in the GEMM output before the threaded backend
#: bothers sharding a matmul; below this the submit/join overhead wins.
MIN_PARALLEL_ELEMS = 1 << 14

#: Minimum items-per-worker granularity for :meth:`KernelBackend.map`.
MIN_PARALLEL_ITEMS = 2


def _env_workers() -> Optional[int]:
    raw = os.environ.get("REPRO_KERNEL_WORKERS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


class KernelBackend:
    """Execution strategy consumed by the kernel layer.

    The base class *is* the serial backend: both primitives execute
    inline.  Subclasses override :meth:`matmul` / :meth:`map` but must
    preserve numerics exactly (disjoint output partitions only — any
    re-association of accumulations would break the hardware parity
    oracle).
    """

    name = "serial"

    @property
    def workers(self) -> int:
        return 1

    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``np.matmul(a, b, out=out)``, possibly partitioned by rows."""
        fault_point("kernels.matmul", elems=out.size)
        np.matmul(a, b, out=out)
        return out

    def map(self, fn: Callable, items: Sequence) -> List:
        """Apply ``fn`` to every item; items must be independent."""
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} workers={self.workers}>"


class SerialBackend(KernelBackend):
    """The default single-threaded backend (bit-identical baseline)."""


# One executor per worker count, shared by every ThreadedBackend
# instance — thread churn per kernel call would swamp the GEMMs.
_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_EXECUTOR_LOCK = threading.Lock()


def _shared_executor(workers: int) -> ThreadPoolExecutor:
    with _EXECUTOR_LOCK:
        pool = _EXECUTORS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernel"
            )
            _EXECUTORS[workers] = pool
        return pool


def _split_ranges(n: int, parts: int) -> List[range]:
    """Split ``range(n)`` into at most ``parts`` contiguous chunks."""
    parts = max(1, min(parts, n))
    base, rem = divmod(n, parts)
    ranges = []
    start = 0
    for k in range(parts):
        size = base + (1 if k < rem else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


class ThreadedBackend(KernelBackend):
    """Partition GEMM rows / work items across a shared thread pool.

    ``workers`` defaults to ``REPRO_KERNEL_WORKERS`` or the CPU count.
    Nested parallelism is refused: a task already running on a kernel
    worker thread executes inline (otherwise a sharded attention call
    whose shards hit sharded GEMMs would deadlock-prone oversubscribe).
    """

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = workers or _env_workers() or os.cpu_count() or 1
        self._in_worker = threading.local()

    @property
    def workers(self) -> int:
        return self._workers

    # ------------------------------------------------------------------
    def _run_tasks(self, tasks: Sequence[Callable]) -> List:
        if len(tasks) == 1 or getattr(self._in_worker, "active", False):
            counter_inc("kernels_threaded_inline_total")
            return [task() for task in tasks]
        counter_inc("kernels_threaded_dispatch_total")
        counter_inc("kernels_threaded_tasks_total", amount=len(tasks))
        gauge_set("kernels_threaded_occupancy",
                  len(tasks) / self._workers)
        pool = _shared_executor(self._workers)

        def guarded(task: Callable):
            self._in_worker.active = True
            try:
                return task()
            finally:
                self._in_worker.active = False

        futures = [pool.submit(guarded, task) for task in tasks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def _split_axis(self, out: np.ndarray) -> Optional[int]:
        """Pick the axis to shard: the largest of out's batch/row axes."""
        if out.ndim < 2 or out.size < MIN_PARALLEL_ELEMS:
            return None
        # Candidate axes: every leading (batch) axis plus the row axis.
        # Operands are sliced along the matching axis when they have it.
        axes = list(range(out.ndim - 1))
        best = max(axes, key=lambda ax: out.shape[ax])
        if out.shape[best] < 2:
            return None
        return best

    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # Checked on the caller's thread, before any work is sharded, so
        # an injected fault never strands half-submitted worker tasks.
        fault_point("kernels.matmul", elems=out.size)
        axis = self._split_axis(out)
        if axis is None or self._workers == 1 or a.ndim < 2 or b.ndim < 2:
            np.matmul(a, b, out=out)
            return out
        parts = _split_ranges(out.shape[axis], self._workers)
        if len(parts) < 2:
            np.matmul(a, b, out=out)
            return out
        counter_inc("kernels_threaded_shards_total", amount=len(parts))
        row_axis = out.ndim - 2

        def index(arr: np.ndarray, rng: range, rows_in_core: bool):
            # Map out's shard axis onto this operand.  Only two kinds of
            # axes are ever sliced: true batch axes (skipping size-1
            # broadcast axes — never by shape coincidence) and, when the
            # shard axis is out's row axis, the matching row axis of
            # ``a``/``out``.  ``b`` never carries the row axis — its
            # second-to-last dim is the contraction dim, and cutting it
            # (or any operand's last dim) would change the GEMM.
            offset = arr.ndim - out.ndim
            ax = axis + offset
            if ax < 0:
                return arr
            if ax >= arr.ndim - 2:
                if not (
                    axis == row_axis and rows_in_core and ax == arr.ndim - 2
                ):
                    return arr
            elif arr.shape[ax] == 1:
                return arr  # batch dim broadcast across the shard axis
            key = [slice(None)] * arr.ndim
            key[ax] = slice(rng.start, rng.stop)
            return arr[tuple(key)]

        def task(rng: range) -> Callable:
            def run():
                np.matmul(
                    index(a, rng, True),
                    index(b, rng, False),
                    out=index(out, rng, True),
                )
            return run

        self._run_tasks([task(rng) for rng in parts])
        return out

    def map(self, fn: Callable, items: Sequence) -> List:
        if len(items) < MIN_PARALLEL_ITEMS or self._workers == 1:
            return [fn(item) for item in items]
        return self._run_tasks([
            (lambda item=item: fn(item)) for item in items
        ])


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], KernelBackend]] = {}
_REGISTRY_LOCK = threading.Lock()
_INSTANCES: Dict[str, KernelBackend] = {}

_active = threading.local()
_default_backend_name = "serial"


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name`` (idempotent override)."""
    with _REGISTRY_LOCK:
        _REGISTRY[name] = factory
        _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Registered backend names (sorted)."""
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY)


def _instance(name: str) -> KernelBackend:
    with _REGISTRY_LOCK:
        if name not in _REGISTRY:
            raise ValueError(
                f"unknown kernel backend {name!r}; "
                f"registered: {sorted(_REGISTRY)}"
            )
        backend = _INSTANCES.get(name)
        if backend is None:
            backend = _REGISTRY[name]()
            _INSTANCES[name] = backend
        return backend


BackendLike = Union[str, KernelBackend, None]


def resolve_backend(backend: BackendLike) -> KernelBackend:
    """Coerce a name / instance / None (= active) to a backend object."""
    if backend is None:
        return get_backend()
    if isinstance(backend, KernelBackend):
        return backend
    return _instance(backend)


def get_backend() -> KernelBackend:
    """The active backend: thread-scoped override, else the global default."""
    backend = getattr(_active, "backend", None)
    if backend is not None:
        return backend
    return _instance(_default_backend_name)


def set_backend(backend: BackendLike) -> str:
    """Set the process-global default backend; returns the previous name."""
    global _default_backend_name
    previous = _default_backend_name
    if isinstance(backend, KernelBackend):
        register_backend(backend.name, lambda b=backend: b)
        _default_backend_name = backend.name
    else:
        _instance(backend)  # validate eagerly
        _default_backend_name = backend
    return previous


@contextlib.contextmanager
def use_backend(backend: BackendLike) -> Iterator[KernelBackend]:
    """Scope the active backend for the current thread.

    Thread-local on purpose: two serving engines on different threads
    can run different backends without racing on the global default.
    The scope holds the *instance*, so a caller-supplied backend (e.g.
    ``ThreadedBackend(workers=2)``) keeps its per-instance configuration
    without touching the registry singleton for that name.
    """
    resolved = resolve_backend(backend)
    previous = getattr(_active, "backend", None)
    _active.backend = resolved
    try:
        yield resolved
    finally:
        _active.backend = previous


register_backend("serial", SerialBackend)
register_backend("threaded", ThreadedBackend)

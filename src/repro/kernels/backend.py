"""The kernel layer's one GEMM entry point.

Every blocked GEMM in the kernel layer — the fused grouped butterfly
GEMMs (:mod:`repro.kernels.grouped`), the decode attention step
(:mod:`repro.kernels.attention`) and the fused training projections
(:mod:`repro.kernels.fused`) — goes through :func:`matmul`, so the
``kernels.matmul`` fault point fires at the same call sites whatever
the caller, and a test can replace the function to count them.

One BLAS thread (``OPENBLAS_NUM_THREADS=1`` and friends) is the
byte-stable setting, and GEMMs run on their caller's thread.  The one
parallelism inside a process is attention's helper lane
(:func:`repro.kernels.attention._run_items`), whose items move no byte.
Multi-core serving is ``--workers N`` processes
(:mod:`repro.serving.cluster`).
"""

from __future__ import annotations

import numpy as np

from ..faults import fault_point


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` behind the ``kernels.matmul`` fault point."""
    fault_point("kernels.matmul", elems=out.size)
    np.matmul(a, b, out=out)
    return out

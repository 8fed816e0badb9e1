"""Shared helpers for the paper-reproduction benchmarks.

Every ``bench_*`` file regenerates one table or figure of the paper and
prints it next to the paper's reported values, so the run log doubles as
the EXPERIMENTS.md evidence.  The pytest-benchmark fixture times the
generating computation itself.

Kernel-regression benchmarks additionally persist machine-readable
results to ``BENCH_kernels.json`` at the repo root (via
:func:`update_bench_json`) so future PRs have a perf trajectory to
compare against.
"""

import json
import os
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

# Pin BLAS/OMP worker pools before numpy loads (pytest imports conftest
# first): one BLAS thread is the byte-stable setting, and library-internal
# threading would make timings noisy and float32 reductions vary across
# runners.  Multi-core serving is ``--workers N`` processes.  Direct
# ``python bench_*.py`` runs get the same pins from scripts/check_bench
# or scripts/verify.sh; pre-set variables always win.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"


def update_bench_json(
    section: str, payload: dict, filename: str = "BENCH_kernels.json"
) -> None:
    """Merge ``payload`` under ``section`` in a repo-root benchmark JSON.

    Kernel benchmarks write the default ``BENCH_kernels.json``; other
    subsystems (e.g. serving) keep their own trajectory file.
    """
    path = REPO_ROOT / filename
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def seed_stage_apply(x, coeffs, half):
    """Faithful copy of the seed butterfly stage apply (pre-kernel-layer).

    The live implementations now all delegate to ``repro.kernels``, so
    the pre-refactor baseline recorded in ``BENCH_kernels.json`` must be
    kept verbatim here: reshape to ``(..., nblocks, 2, half)``, mix the
    halves, reassemble.  Shared by the forward-throughput and
    training-path benchmarks so the two baselines cannot drift apart.
    """
    import numpy as np

    n = x.shape[-1]
    nblocks = n // (2 * half)
    lead = x.shape[:-1]
    xr = x.reshape(*lead, nblocks, 2, half)
    x0, x1 = xr[..., 0, :], xr[..., 1, :]
    a, b, c, d = (coeffs[k].reshape(nblocks, half) for k in range(4))
    y0 = a * x0 + b * x1
    y1 = c * x0 + d * x1
    return np.stack([y0, y1], axis=-2).reshape(*lead, n)


def time_ms(fn: Callable[[], object], iters: int = 10, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean wall time of ``fn`` in milliseconds.

    The same procedure is applied to every configuration being compared,
    so seed-vs-kernel ratios are apples to apples.
    """
    fn()  # warm up (JIT-less, but primes allocators and plan caches)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best * 1e3


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned reproduction table to the bench log."""
    rows = [[str(c) for c in row] for row in rows]
    header = [str(h) for h in header]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))

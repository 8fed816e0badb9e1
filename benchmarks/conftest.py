"""Shared helpers for the benchmarks.

Every ``bench_fig*`` / ``bench_table*`` / ``bench_ablation*`` file
regenerates one figure or table of the paper, prints it next to the
paper's reported values and asserts the paper's finding; CI's ``paper``
suite runs them as plain pytest tests.  The remaining ``bench_*`` files
(cluster, load, telemetry and fault overhead) persist their gates to a
``BENCH_*.json`` at the repo root (via :func:`update_bench_json`), which
``scripts/check_bench.py`` compares against the committed values.
Timing lives in ``benchmarks/e2e``.
"""

import json
import os
from pathlib import Path
from typing import Iterable, Sequence

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


def update_bench_json(section: str, payload: dict, filename: str) -> None:
    """Merge ``payload`` under ``section`` in a repo-root benchmark JSON."""
    path = REPO_ROOT / filename
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


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

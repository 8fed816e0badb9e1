#!/usr/bin/env python
"""Benchmark-regression gate: fresh runs vs the committed BENCH_*.json.

Each subsystem benchmark persists machine-readable results to a
``BENCH_*.json`` at the repo root.  This script is the single gate over
those trajectories, replacing per-workflow ad-hoc assertions:

1. it snapshots the committed JSON values as the *reference*,
2. runs the selected benchmarks (``--smoke`` for the quick CI mode,
   ``--full`` for the nightly full runs),
3. compares the freshly written metrics against the reference with a
   tolerance band — timing ratios get a wide band (shared CI runners are
   noisy), deterministic metrics (loss counts, parity flags) a tight
   one — plus an absolute hard bound per metric.

A metric **fails** when it crosses its absolute hard bound, or when a
*deterministic* metric leaves its tolerance band.  Wall-clock ratios
that drift outside their band only **warn** (loudly, in the summary
table): the committed references come from whatever box last ran the
full benchmarks, and shared CI runners legitimately measure different
ratios — the predecessor workflows ran these comparisons with
``continue-on-error`` for the same reason.  Metrics absent from the
committed file (first introduction) are checked against the hard bound
only.

Usage::

    python scripts/check_bench.py --smoke            # all smoke gates (CI)
    python scripts/check_bench.py --smoke load       # one subsystem
    python scripts/check_bench.py --full             # nightly full runs
    python scripts/check_bench.py --smoke --no-run   # compare only
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

#: Tolerance bands relative to the committed reference value.
TIMING_TOL = 0.45  # wall-clock ratios on shared runners
EXACT_TOL = 0.02   # deterministic metrics (loss counts, parity flags)


@dataclass(frozen=True)
class Check:
    """One gated metric inside a benchmark JSON.

    ``path`` is a dotted path below the JSON root; ``kind`` is
    ``"higher"`` (overhead ratios, tokens/s — regressions go down) or
    ``"lower"`` (lost requests, recovery time — regressions go up).  ``bound``
    is the absolute hard limit in the regression direction; crossing it
    always fails.  Leaving the ``rel_tol`` band around the committed
    reference fails only for ``strict_band`` (deterministic) metrics —
    wall-clock ratios warn instead, because the reference was measured
    on a different machine than the CI runner.
    """

    path: str
    kind: str  # "higher" | "lower"
    bound: float
    rel_tol: float = TIMING_TOL
    strict_band: bool = False


@dataclass(frozen=True)
class Bench:
    name: str
    script: str
    json_file: str
    smoke_args: Tuple[str, ...]
    smoke_checks: Tuple[Check, ...]
    full_args: Tuple[str, ...] = ()
    full_checks: Tuple[Check, ...] = ()


MANIFEST: Tuple[Bench, ...] = (
    Bench(
        name="cluster",
        script="bench_cluster.py",
        json_file="BENCH_serving.json",
        smoke_args=("--quick",),
        smoke_checks=(
            # Determinism/loss gates are exact: a mid-decode SIGKILL must
            # lose zero sessions and replay bit-identically.
            Check("cluster_smoke.failover_parity_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("cluster_smoke.lost_sessions", "lower", 0.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("cluster_smoke.kill_landed", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
        ),
        full_checks=(
            Check("cluster.failover_parity_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("cluster.lost_sessions", "lower", 0.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("cluster.kill_landed", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            # Failover must complete promptly (timing band: warn-only
            # drift, hard fail past the bound).
            Check("cluster.recovery_after_kill_s", "lower", 5.0),
        ),
    ),
    Bench(
        name="load",
        script="bench_load.py",
        json_file="BENCH_load.json",
        smoke_args=("--quick",),
        smoke_checks=(
            # SLO gates over real sockets are exact: every accepted
            # request completes, the overload burst sheds cleanly at
            # the door, and a mid-load worker SIGKILL loses nothing.
            Check("load_smoke.lost_requests", "lower", 0.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("load_smoke.shed_gate_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("load_smoke.accepted_completed_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("load_smoke.kill_landed", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
        ),
        full_checks=(
            Check("load.lost_requests", "lower", 0.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("load.shed_gate_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("load.accepted_completed_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("load.kill_landed", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
        ),
    ),
    Bench(
        name="telemetry",
        script="bench_telemetry_overhead.py",
        json_file="BENCH_quant.json",
        smoke_args=("--smoke",),
        smoke_checks=(
            # Enabled decode must stay within 10% of disabled: the
            # overhead ratio is a same-run comparison, so it is far more
            # stable than cross-machine tokens/s and gets a hard bound.
            Check("telemetry_overhead_smoke.overhead_ratio", "higher", 0.9),
            Check("telemetry_overhead_smoke.bit_neutral", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            # Disabled tokens/s vs the committed trajectory (timing band,
            # warn-only): catches instrumentation taxing the off state.
            Check("telemetry_overhead_smoke.disabled_tokens_per_s",
                  "higher", 100.0),
        ),
        full_checks=(
            Check("telemetry_overhead.overhead_ratio", "higher", 0.9),
            Check("telemetry_overhead.bit_neutral", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("telemetry_overhead.disabled_tokens_per_s",
                  "higher", 100.0),
        ),
    ),
    Bench(
        name="resilience",
        script="bench_fault_overhead.py",
        json_file="BENCH_quant.json",
        smoke_args=("--smoke",),
        smoke_checks=(
            # Faults-disabled decode must stay within 10% of the
            # resilience-bypassed engine (same-run ratio, hard bound).
            Check("fault_overhead_smoke.overhead_ratio", "higher", 0.9),
            Check("fault_overhead_smoke.chaos_parity_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            Check("fault_overhead_smoke.faults_injected", "higher", 5.0),
            Check("fault_overhead_smoke.disabled_tokens_per_s",
                  "higher", 100.0),
        ),
        full_checks=(
            Check("fault_overhead.overhead_ratio", "higher", 0.9),
            Check("fault_overhead.chaos_parity_ok", "higher", 1.0,
                  rel_tol=EXACT_TOL, strict_band=True),
            # The acceptance gate: the full chaos schedule must inject
            # at least 20 transient faults and still recover bit-exact.
            Check("fault_overhead.faults_injected", "higher", 20.0),
            Check("fault_overhead.disabled_tokens_per_s", "higher", 100.0),
        ),
    ),
)


@dataclass
class Verdict:
    bench: str
    check: Check
    fresh: Optional[float]
    reference: Optional[float]
    failures: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _lookup(data: dict, path: str) -> Optional[float]:
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _load_json(json_file: str) -> dict:
    path = REPO_ROOT / json_file
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except ValueError:
        return {}


def _evaluate(bench: Bench, check: Check, fresh_data: dict, ref_data: dict) -> Verdict:
    fresh = _lookup(fresh_data, check.path)
    reference = _lookup(ref_data, check.path)
    verdict = Verdict(bench.name, check, fresh, reference)
    if fresh is None:
        verdict.failures.append("metric missing from fresh results")
        return verdict
    # Band breaches fail only for deterministic (strict_band) metrics;
    # wall-clock ratios warn, since the reference was measured elsewhere.
    band_sink = verdict.failures if check.strict_band else verdict.warnings
    if check.kind == "higher":
        if fresh < check.bound:
            verdict.failures.append(f"below hard bound {check.bound:g}")
        if reference is not None and fresh < reference * (1.0 - check.rel_tol):
            band_sink.append(
                f"outside tolerance band (ref {reference:g} -{check.rel_tol:.0%})"
            )
    else:
        if fresh > check.bound:
            verdict.failures.append(f"above hard bound {check.bound:g}")
        if reference is not None and fresh > reference * (1.0 + check.rel_tol):
            band_sink.append(
                f"outside tolerance band (ref {reference:g} +{check.rel_tol:.0%})"
            )
    return verdict


def _run_benchmark(bench: Bench, args: Sequence[str]) -> int:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    # Single-threaded BLAS/OMP: the byte-stable setting the committed
    # references were measured in (see verify.sh).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env.setdefault(var, "1")
    command = [sys.executable, bench.script, *args]
    print(f"\n>>> [{bench.name}] {' '.join(command)}", flush=True)
    return subprocess.call(command, cwd=BENCH_DIR, env=env)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smoke", action="store_true",
                      help="quick benchmark modes + smoke gates (CI)")
    mode.add_argument("--full", action="store_true",
                      help="full benchmark runs + trajectory gates (nightly)")
    parser.add_argument("--no-run", action="store_true",
                        help="compare the current JSON files without running")
    parser.add_argument("names", nargs="*",
                        help="subset of benchmarks (default: all of "
                             f"{', '.join(b.name for b in MANIFEST)})")
    args = parser.parse_args(argv)

    known = {b.name: b for b in MANIFEST}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown benchmark(s) {unknown}; choose from {sorted(known)}")
    selected = [known[n] for n in args.names] if args.names else list(MANIFEST)

    # Snapshot the committed values before any benchmark rewrites them.
    references = {b.json_file: _load_json(b.json_file) for b in selected}

    failed_runs: List[str] = []
    if not args.no_run:
        for bench in selected:
            run_args = bench.full_args if args.full else bench.smoke_args
            if _run_benchmark(bench, run_args) != 0:
                failed_runs.append(bench.name)

    verdicts: List[Verdict] = []
    for bench in selected:
        fresh_data = _load_json(bench.json_file)
        checks = bench.full_checks if args.full else bench.smoke_checks
        for check in checks:
            verdicts.append(
                _evaluate(bench, check, fresh_data, references[bench.json_file])
            )

    width = max(len(f"{v.bench}:{v.check.path}") for v in verdicts)
    print(f"\n{'metric'.ljust(width)}  {'fresh':>10}  {'ref':>10}  status")
    print(f"{'-' * width}  {'-' * 10}  {'-' * 10}  ------")
    for v in verdicts:
        fresh = f"{v.fresh:g}" if v.fresh is not None else "missing"
        ref = f"{v.reference:g}" if v.reference is not None else "new"
        if not v.ok:
            status = "FAIL: " + "; ".join(v.failures + v.warnings)
        elif v.warnings:
            status = "WARN: " + "; ".join(v.warnings)
        else:
            status = "ok"
        print(f"{f'{v.bench}:{v.check.path}'.ljust(width)}  "
              f"{fresh:>10}  {ref:>10}  {status}")

    bad = [v for v in verdicts if not v.ok]
    if failed_runs:
        print(f"\nbenchmark run(s) failed: {', '.join(failed_runs)}")
    if bad:
        print(f"\n{len(bad)} metric(s) regressed")
    if failed_runs or bad:
        return 1
    print("\nall benchmark gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

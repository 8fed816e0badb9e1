#!/usr/bin/env bash
# Tier-1 verification — the single source of truth for how the test
# suite is invoked.  ROADMAP.md points here and CI's `core` matrix suite
# calls this script; do not fork the flags or the PYTHONPATH spelling in
# either place.
#
# Equivalent one-liner:
#   PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Pin BLAS/OMP worker pools to one thread (overridable by pre-setting
# the variables): library-internal threading varies across runners and
# would make timings noisy and float32 reductions machine-dependent.
# One BLAS thread is the byte-stable setting; attention's one helper lane
# (byte-identical to one lane) is the only in-process parallelism.
# Multi-core serving is `--workers N` processes.
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS:-1}"
export VECLIB_MAXIMUM_THREADS="${VECLIB_MAXIMUM_THREADS:-1}"
export NUMEXPR_NUM_THREADS="${NUMEXPR_NUM_THREADS:-1}"
python -m pytest -x -q "$@"

"""Measurement primitives shared by the six end-to-end workloads.

Everything here is independent of ``repro``: the speed probe, sample
statistics (the tail-percentile rule, grouped medians and rates and
their steady level), the seeded Poisson arrival plan, the in-memory
span recorder of the ``--trace 1`` pass, and the provenance block
stamped on every result.  ``test_harness.py``
exercises this module without running a model.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent
OUT_DIR = E2E_DIR / "out"

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99, 95, 90)
#: A window is cut into this many chronological equal-count groups.
GROUPS = 8

clock = time.perf_counter


# ----------------------------------------------------------------------
# The machine's speed
# ----------------------------------------------------------------------
# The reference box is a 2-vCPU microVM whose speed is not constant: on
# each vCPU a fixed spin loop runs at a steady floor, then 1.3-1.7x slower
# for 0.1-60 s at a time (README, "Noise").  Any timing that integrates
# over a second moves with the slow share of its run, by +-15% for
# kernel-bound and +-30% for interpreter-bound code, whole runs included.
# Two defences, in this order:
#
# * ``SpeedProbe`` times a fixed snippet (no code of the program under
#   test) every 20 ms between the workload's operations; a group of
#   operations is rescaled by how much slower than the reference box's
#   undisturbed level the snippet ran during it.  On the reference box
#   this cut the run-to-run spread of a kernel-bound forward from 0.12 to
#   0.04 and of an interpreter-bound serving backlog from 0.31 to 0.05.
# * every window is cut into groups, each group gives its own (rescaled)
#   median or rate, and the run reports the quartile of the group values
#   on the fast side, which holds while a third of the window ran
#   undisturbed; what the probe tracks imperfectly is left to this.
class SpeedProbe:
    """How much slower than the reference box's undisturbed level this
    machine runs, sampled between a workload's operations.

    The snippet has four parts with different bottlenecks — a Python
    loop, small-array numpy calls, a cache-resident GEMM and a 1 MB
    copy — each timed on its own and compared with its reference
    duration; a sample's slowdown is the mean of the four ratios, because
    a disturbed vCPU slows them by different factors (1.2x the copy, 1.6x
    the small calls) and the workloads mix all four.  ``REFERENCE_US`` is
    each part's floor on the idle reference box times 1.3, about the
    level the parts run at when sampled cache-cold between a workload's
    operations while the box is undisturbed; it only sets the unit.  On
    another machine, or after a workload that leaves the caches colder,
    every slowdown is off by a constant factor, which cancels in any
    comparison of one workload on one machine.
    """

    PERIOD_S = 0.02
    REFERENCE_US = (104.0, 162.0, 121.0, 47.0)

    def __init__(self) -> None:
        self._small = np.linspace(0.0, 1.0, 8 * 32).reshape(8, 32)
        self._square = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
        self._gemm = np.linspace(0.0, 1.0, 160 * 160, dtype=np.float32).reshape(160, 160)
        self._source = np.zeros(262144, dtype=np.float32)
        self._target = np.empty_like(self._source)
        self.times: List[float] = []
        self.slowdowns: List[float] = []
        self._next = 0.0

    def tick(self) -> None:
        """Sample, unless the last sample is less than ``PERIOD_S`` old.
        Cheap enough (one clock read) to call after every operation."""
        if clock() >= self._next:
            self.sample()

    def _python_loop(self) -> None:
        total = 0
        for i in range(1500):
            total += i * i

    def _small_arrays(self) -> None:
        for _ in range(12):
            scores = self._small @ self._square
            scores = np.exp(scores - scores.max())
            scores = scores / scores.sum()

    def _gemm_in_cache(self) -> None:
        self._gemm @ self._gemm

    def _copy(self) -> None:
        np.copyto(self._target, self._source)

    def sample(self) -> None:
        """Each part runs once, cold: a second, cache-warm run tracked
        the workloads' slowdown far worse (the disturbance costs most on
        cache misses, which the workloads are full of)."""
        self.times.append(clock())
        ratios = 0.0
        for part, reference_us in zip(
            (self._python_loop, self._small_arrays, self._gemm_in_cache, self._copy),
            self.REFERENCE_US,
        ):
            t0 = clock()
            part()
            ratios += (clock() - t0) * 1e6 / reference_us
        self.slowdowns.append(ratios / 4)
        self._next = clock() + self.PERIOD_S

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown of the samples taken in ``[start, end]``
        (of the nearest sample on either side when there is none)."""
        if not self.times:
            raise RuntimeError("the speed probe was never sampled")
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return float(np.median(self.slowdowns[lo:hi]))


# ----------------------------------------------------------------------
# Sample statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> Optional[int]:
    """Highest of p99/p95/p90 that leaves >= ``MIN_BEYOND`` of ``n``
    samples beyond it; ``None`` when the sample supports no tail."""
    for q in TAIL_CANDIDATES:
        if n * (100 - q) >= MIN_BEYOND * 100:
            return q
    return None


def chronological(samples: Sequence[float], groups: int = GROUPS) -> List[List[float]]:
    """``samples`` (in the order measured) as at most ``groups``
    contiguous groups of equal count (to within one)."""
    n = len(samples)
    k = min(groups, n)
    bounds = [round(i * n / k) for i in range(k + 1)] if k else [0]
    return [list(samples[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def steady_time(group_values: Sequence[float]) -> float:
    """Lower quartile of per-group timings: the undisturbed level."""
    return float(np.percentile(np.asarray(group_values, dtype=np.float64), 25))


def steady_rate(group_values: Sequence[float]) -> float:
    """Upper quartile of per-group rates: the undisturbed level."""
    return float(np.percentile(np.asarray(group_values, dtype=np.float64), 75))


def summarize(groups: Sequence[Sequence[float]]) -> Dict[str, object]:
    """``{"p50", "tail", "tail_q", "n", "groups"}`` of samples given in
    groups (rounds of a workload, or :func:`chronological` groups).

    ``p50`` is the steady level of the group medians; ``tail`` is the
    supported tail percentile over all samples together.  With too few
    samples for any tail percentile the tail *is* the median (``tail_q``
    50), so the metric stays defined."""
    groups = [g for g in groups if len(g)]
    if not groups:
        raise ValueError("cannot summarize an empty sample")
    values = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    q = tail_percentile(values.size)
    medians = [float(np.median(g)) for g in groups]
    p50 = steady_time(medians)
    return {
        "groups": medians,
        "p50": p50,
        "tail": float(np.percentile(values, q)) if q else p50,
        "tail_q": q or 50,
        "n": int(values.size),
    }


def group_rates(
    t0: float, end_times: Sequence[float], tokens: Sequence[float],
    groups: int = GROUPS,
) -> List[float]:
    """Tokens/s of each :func:`chronological` group of operations.

    Operation ``i`` ended at ``end_times[i]`` and produced ``tokens[i]``
    tokens; the window started at ``t0``.  A group's rate is its tokens
    over the wall time from the previous group's last end to its own.
    """
    n = len(end_times)
    if n != len(tokens) or n == 0:
        raise ValueError(
            f"need operations with matching token counts, got {n} end "
            f"times and {len(tokens)} counts"
        )
    rates, start, lo = [], t0, 0
    for group in chronological(end_times, groups):
        hi = lo + len(group)
        rates.append(sum(tokens[lo:hi]) / (group[-1] - start))
        start, lo = group[-1], hi
    return rates


def rescaled_operations(
    probe: SpeedProbe, spans: Sequence[Tuple[float, float]], tokens_per_op: float,
    groups: int = GROUPS, per_group: bool = True,
) -> Tuple[List[float], List[List[float]], List[float]]:
    """Equal operations run one after another, ``spans[i]`` the start
    and end of operation ``i``, cut into :func:`chronological` groups
    and rescaled by the probe's slowdown during each group (during the
    whole window with ``per_group=False``, for operations so long that a
    group holds few samples).  Returns each group's tokens/s, its
    operation times in ms, and its slowdown."""
    rates, times, slowdowns = [], [], []
    whole = probe.slowdown(spans[0][0], spans[-1][1])
    for group in chronological(spans, groups):
        slow = probe.slowdown(group[0][0], group[-1][1]) if per_group else whole
        busy = sum(end - start for start, end in group)
        rates.append(tokens_per_op * len(group) / busy * slow)
        times.append([(end - start) * 1e3 / slow for start, end in group])
        slowdowns.append(slow)
    return rates, times, slowdowns


def poisson_arrivals(
    rng: np.random.Generator, rate_per_s: float, count: int
) -> List[float]:
    """``count`` due times (seconds from the phase start) of a Poisson
    process: cumulative exponential gaps drawn from ``rng``."""
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=count)).tolist()


def input_hash(*parts: object) -> str:
    """SHA-256 over the generated inputs (arrays by bytes, the rest by
    canonical JSON), recorded so two runs can prove they saw the same."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(str(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def time_ms(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` in ms over ``repeats`` calls after
    one untimed call (the standalone kernel probes)."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return float(np.median(samples)) * 1e3


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder for the traced pass.

    A span is ``(name, start, end, parent, request id, track)``.  Spans
    opened with :meth:`span` nest by a per-track stack; :meth:`add`
    records a span whose interval was measured elsewhere (for example
    derived from a timing proxy).  A tracer built with ``enabled=False``
    hands out one shared no-op context, so the untraced pass runs the
    same code with no recording.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[str, float, float, int, Optional[int], int]] = []
        self._stacks: Dict[int, List[int]] = {}

    def span(self, name: str, request_id: Optional[int] = None, track: int = 0):
        if not self.enabled:
            return self._NULL
        return self._record(name, request_id, track)

    @contextlib.contextmanager
    def _record(self, name, request_id, track):
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append((name, clock(), 0.0, parent, request_id, track))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            name, start, _, parent, request_id, track = self.spans[index]
            self.spans[index] = (name, start, clock(), parent, request_id, track)

    def add(self, name: str, start: float, end: float,
            request_id: Optional[int] = None, track: int = 0) -> None:
        """Record a finished span as a child of the track's open span."""
        if not self.enabled:
            return
        stack = self._stacks.get(track)
        parent = stack[-1] if stack else -1
        self.spans.append((name, start, end, parent, request_id, track))

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's duration minus the part of
        it that its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _, _, _), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, *_ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def coverage_share(self, window_s: float) -> float:
        """Span self-times over the measured window (per track, since
        each track is one sequential actor)."""
        tracks = {span[5] for span in self.spans} or {0}
        return sum(self.self_times().values()) / (window_s * len(tracks))

    def write_chrome(self, path: Path) -> None:
        """Write the spans in Chrome trace-event format."""
        base = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": track,
                "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent, "request_id": request_id},
            }
            for name, start, end, parent, request_id, track in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_build() -> str:
    config = getattr(np, "show_config", None)
    try:
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(seed: int, inputs: str, wall_s: float) -> Dict[str, object]:
    """Who measured what, where: stamped on every result.

    ``commit`` is ``None`` outside a git checkout (the acceptance driver
    runs from an exported tree).
    """
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_build(),
        "thread_pins": {
            name: value for name, value in sorted(os.environ.items())
            if name.endswith("_THREADS")
        },
        "seed": seed,
        "input_hash": inputs,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_s": wall_s,
    }


# ----------------------------------------------------------------------
# The benchmark's contract
# ----------------------------------------------------------------------
def load_contract() -> Dict[str, object]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def iter_jsonl(paths: Iterable[os.PathLike]) -> Iterable[dict]:
    """Every JSON object in the given JSON-lines files."""
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.strip():
                yield json.loads(line)

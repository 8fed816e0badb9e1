"""Process-wide metric registry: counters, gauges, histograms.

This is the substrate every subsystem reports into — the software
analogue of the hardware model's cycle/operation counters, promoted to a
first-class production signal the way serving systems (vLLM et al.)
expose engine counters and latency histograms.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Telemetry is opt-in
   (``REPRO_TELEMETRY=1`` or :func:`enable`).  Hot paths guard with
   ``if STATE.on:`` (two attribute loads) or call the module-level
   conveniences (:func:`counter_inc` / :func:`gauge_set`), which return immediately while disabled and never
   touch the registry — the disabled fast path performs *zero* registry
   mutations, asserted by tests and gated by the telemetry-overhead
   benchmark.
2. **Bit-neutral.**  Instruments only ever record scalars; no kernel
   array is read or written, so enabling telemetry can never change
   numerics (asserted by a token-parity test).
3. **Thread-safe.**  A ``ServerThread`` and its caller, or a training
   loop beside a scrape, update shared counters from different threads;
   every instrument carries its own lock and the registry serializes
   instrument creation.  (Kernels run on their caller's thread, bar
   attention's helper lane, and multi-core serving is ``--workers N``
   processes, each with its own registry.)
4. **Deterministic in tests.**  The clock is injectable per registry
   (``Registry(clock=...)``), and histogram reservoirs use a seeded
   stdlib RNG, so timelines and percentiles are reproducible.

Naming convention (see CONTRIBUTING): ``subsystem_op_unit``, e.g.
``kernels_plan_cache_hits_total`` (counter), ``serving_ttft_ms``
(histogram), ``training_tokens_per_s`` (gauge).  Optional labels are
passed as keyword arguments and become Prometheus labels.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "STATE",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Reservoir",
    "counter_inc",
    "disable",
    "enable",
    "enabled",
    "gauge_set",
    "get_registry",
    "reset",
    "set_registry",
    "use_telemetry",
]

#: Default histogram bucket upper bounds for millisecond latencies.
DEFAULT_MS_BOUNDARIES: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0,
)

#: Default bounded-reservoir capacity: percentiles are exact while the
#: stream fits, an unbiased uniform sample beyond (Algorithm R).
DEFAULT_RESERVOIR = 1024


class _State:
    """The module-level enabled flag, readable as two attribute loads."""

    __slots__ = ("on",)

    def __init__(self, on: bool) -> None:
        self.on = on


STATE = _State(os.environ.get("REPRO_TELEMETRY", "0") == "1")


def enabled() -> bool:
    """Whether telemetry collection is on (``REPRO_TELEMETRY=1`` or
    :func:`enable`)."""
    return STATE.on


def enable() -> None:
    """Turn telemetry collection on process-wide."""
    STATE.on = True


def disable() -> None:
    """Turn telemetry collection off process-wide."""
    STATE.on = False


class use_telemetry:
    """Scope the enabled flag: ``with use_telemetry(): ...``.

    A plain class (not ``@contextmanager``) so entering costs one
    attribute swap and the object is reusable.
    """

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._prev: Optional[bool] = None

    def __enter__(self) -> "use_telemetry":
        self._prev = STATE.on
        STATE.on = self._on
        return self

    def __exit__(self, *exc) -> bool:
        STATE.on = self._prev
        return False


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing count (``*_total`` by convention)."""

    __slots__ = ("name", "labels", "_lock", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "_lock", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Reservoir:
    """Bounded uniform sample of a stream (Vitter's Algorithm R).

    Percentiles computed from the reservoir are *exact* while the stream
    has produced at most ``capacity`` values and an unbiased estimate
    beyond that — bounded memory either way, which is the whole point
    (the unbounded per-step sample lists this replaces grew forever).
    The RNG is a seeded :mod:`random.Random` so tests are deterministic.
    """

    __slots__ = ("capacity", "count", "_values", "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self._values: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._values) < self.capacity:
            self._values.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.capacity:
            self._values[slot] = value

    def values(self) -> List[float]:
        return list(self._values)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile (``q`` in [0, 100]) over the sample."""
        if not self._values:
            return None
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


class Histogram:
    """Fixed-boundary buckets plus a bounded reservoir for percentiles.

    ``boundaries`` are inclusive upper bounds; an implicit ``+Inf``
    bucket closes the range (Prometheus cumulative-bucket semantics are
    produced at render time).  ``observe`` is O(len(boundaries)) with a
    linear scan — boundary lists are short and a scan beats bisect call
    overhead at these sizes.
    """

    __slots__ = (
        "name", "labels", "boundaries", "bucket_counts",
        "count", "sum", "min", "max", "_reservoir", "_lock",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_MS_BOUNDARIES,
        labels: Tuple[Tuple[str, str], ...] = (),
        reservoir: int = DEFAULT_RESERVOIR,
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram boundaries must be strictly "
                             f"increasing, got {boundaries}")
        self.name = name
        self.labels = labels
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir = Reservoir(reservoir)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for i, bound in enumerate(self.boundaries):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            else:
                self.bucket_counts[-1] += 1
            self._reservoir.add(value)

    def percentile(self, q: float) -> Optional[float]:
        with self._lock:
            return self._reservoir.percentile(q)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "count": self.count,
                "sum": self.sum,
                "mean": self.mean,
                "min": self.min,
                "max": self.max,
                "p50": self._reservoir.percentile(50),
                "p95": self._reservoir.percentile(95),
                "p99": self._reservoir.percentile(99),
            }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Registry:
    """A named collection of instruments with one injectable clock.

    Instrument getters are get-or-create and type-checked: asking for an
    existing name with a different instrument kind raises, which catches
    naming-collision bugs at the call site.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, tuple], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, labels=key[1], **kwargs)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"instrument {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}"
                )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_MS_BOUNDARIES,
        reservoir: int = DEFAULT_RESERVOIR,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, labels,
                         boundaries=boundaries, reservoir=reservoir)

    def instruments(self) -> List[object]:
        """Every registered instrument, sorted by (name, labels)."""
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def snapshot(self) -> Dict[str, dict]:
        """JSON-ready view: ``{name{labels}: {kind, value/percentiles}}``."""
        out: Dict[str, dict] = {}
        for inst in self.instruments():
            label_str = ",".join(f"{k}={v}" for k, v in inst.labels)
            key = f"{inst.name}{{{label_str}}}" if label_str else inst.name
            out[key] = inst.snapshot()
        return out

    def reset(self) -> None:
        """Drop every instrument (tests and the profile CLI)."""
        with self._lock:
            self._instruments.clear()


_default_registry = Registry()
_default_lock = threading.Lock()

def get_registry() -> Registry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: Registry) -> Registry:
    """Swap the default registry (tests inject a fake-clock one); returns
    the previous registry."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


def reset() -> None:
    """Clear the default registry's instruments."""
    _default_registry.reset()


# ----------------------------------------------------------------------
# Gated conveniences for hot paths
# ----------------------------------------------------------------------
def counter_inc(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a default-registry counter; no-op while disabled."""
    if not STATE.on:
        return
    _default_registry.counter(name, **labels).inc(amount)


def gauge_set(name: str, value: float, **labels) -> None:
    """Set a default-registry gauge; no-op while disabled."""
    if not STATE.on:
        return
    _default_registry.gauge(name, **labels).set(value)

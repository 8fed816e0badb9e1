"""Step-level resilience for the serving engine: snapshot, retry, isolate.

One exception inside :meth:`ContinuousBatchScheduler.step` used to
poison the whole continuous batch — every in-flight request died with
it.  This module gives the engine the single-engine resilience substrate
the ROADMAP's multi-worker failure-injection tests will drive:

* :class:`SchedulerSnapshot` — a bit-exact capture of everything a step
  mutates: the batched KV cache (:meth:`DecoderKVCache.clone`), every
  sequence's token history and sampling-RNG stream position, and the
  active/waiting membership.  Restoring it makes a retried step
  indistinguishable from the failed attempt's first run.
* :func:`resilient_step` — runs ``scheduler.step()`` under that
  snapshot.  A :class:`~repro.faults.TransientFault` rolls the world
  back and retries at once, up to a budget (the injected
  fault's schedule slot is spent, so the retry replays the *same*
  tokens unless the schedule says to fail again).  A
  :class:`~repro.faults.FatalFault`, or a transient one that exhausts
  the retry budget, evicts exactly one victim request with
  ``finish_reason="error"`` — attributed from the fault's
  ``request_id`` context when the point is request-scoped (prefill,
  sample), falling back to the oldest batch row for batch-scoped points
  (decode, kernels) — and the step re-runs without it.

The snapshot is taken **only while a fault injector is installed**
(:func:`repro.faults.active`): the fault-free production path pays one
attribute check per step, nothing more (gated by the ``fault_overhead``
benchmark).  :class:`ResilienceConfig` switches the machinery and
holds the retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..faults import FatalFault, FaultError, TransientFault
from ..telemetry import Registry
from .scheduler import FINISH_ERROR, ContinuousBatchScheduler, StepEvent

__all__ = [
    "ResilienceConfig",
    "SchedulerSnapshot",
    "resilient_step",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-recovery policy for an engine.

    ``max_retries`` bounds transient-fault retries *per step attempt
    round* (a fresh victim eviction resets the budget — each surviving
    subset of the batch deserves its own retries); a retry runs at once.
    ``enabled=False`` restores the pre-resilience engine step wholesale
    (the benchmark baseline).
    """

    enabled: bool = True
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


class SchedulerSnapshot:
    """Single-use capture of scheduler state for bit-identical rollback."""

    def __init__(self, scheduler: ContinuousBatchScheduler) -> None:
        self._scheduler = scheduler
        self._cache = (
            scheduler.cache.clone() if scheduler.cache is not None else None
        )
        self._active = list(scheduler.active)
        self._waiting = list(scheduler.waiting)
        # A sequence may appear in either list but never both; capture
        # each exactly once.
        self._states = [
            (seq, seq.capture_state())
            for seq in self._active + self._waiting
        ]
        self._used = False

    def restore(self) -> None:
        """Put the scheduler back exactly where :meth:`__init__` saw it.

        Single-use: the restored cache is the snapshot's own clone, and
        the scheduler will mutate it in place on the next attempt — a
        second restore would hand out the already-dirty arrays.  Take a
        fresh snapshot per attempt instead.
        """
        if self._used:
            raise RuntimeError(
                "SchedulerSnapshot.restore() is single-use; capture a new "
                "snapshot before every attempt"
            )
        self._used = True
        s = self._scheduler
        s.cache = self._cache
        s.active = list(self._active)
        s.waiting.clear()
        s.waiting.extend(self._waiting)
        for seq, state in self._states:
            seq.restore_state(state)


def _pick_victim(
    fault: FaultError, scheduler: ContinuousBatchScheduler
) -> Optional[int]:
    """The request to evict for an unretryable fault.

    Request-scoped points (prefill, sample) name their victim in the
    fault context.  Batch-scoped points (decode, kernel GEMMs) cannot —
    the fault hit shared work — so the oldest active row is evicted,
    deterministically (the serving analogue of suspect-and-evict
    worker replacement; with the whole batch suspect, seniority is the
    only stable tiebreak).
    """
    rid = fault.request_id
    if rid is not None:
        live = [s.request.request_id for s in scheduler.active]
        live += [s.request.request_id for s in scheduler.waiting]
        if rid in live:
            return rid
    if scheduler.active:
        return scheduler.active[0].request.request_id
    if scheduler.waiting:
        return scheduler.waiting[0].request.request_id
    return None


def resilient_step(
    scheduler: ContinuousBatchScheduler,
    config: ResilienceConfig,
    registry: Registry,
) -> List[StepEvent]:
    """``scheduler.step()`` with rollback/retry/isolation semantics.

    Returns the step's events — eviction events for requests failed this
    step are prepended, mirroring how the scheduler itself reports
    cancellations first.  Each rollback, retry and evicted request is
    counted once, into ``registry`` (the engine's).
    """
    error_events: List[StepEvent] = []
    while True:
        attempt = 0
        while True:
            snapshot = SchedulerSnapshot(scheduler)
            try:
                return error_events + scheduler.step()
            except FaultError as fault:
                snapshot.restore()
                registry.counter("serving_fault_rollbacks_total").inc()
                retryable = (
                    isinstance(fault, TransientFault)
                    and not isinstance(fault, FatalFault)
                    and attempt < config.max_retries
                )
                if retryable:
                    attempt += 1
                    registry.counter("serving_fault_retries_total").inc()
                    continue
                victim = _pick_victim(fault, scheduler)
                if victim is None:
                    # No live request to evict — nothing to shield; let
                    # the fault surface to the caller.
                    raise
                event = scheduler.fail_request(victim, FINISH_ERROR)
                if event is not None:
                    error_events.append(event)
                    registry.counter("serving_request_errors_total").inc()
                break  # outer loop: fresh retry budget without the victim

"""`ServingEngine`: the submit/stream/cancel API over continuous batching.

The engine wraps :class:`repro.serving.scheduler.ContinuousBatchScheduler`
with request-id management, per-request results, streaming iterators and
:class:`repro.serving.metrics.ServingMetrics`.  It is synchronous by
design — ``step()`` advances the world one token; ``run()`` drains it —
so behavior is deterministic and testable, while the API mirrors what an
async front-end would expose.

Typical use::

    engine = ServingEngine(model, max_batch_size=8)
    rid = engine.submit(prompt, SamplingParams(max_new_tokens=32, seed=0))
    for token in engine.stream(rid):
        ...                       # tokens arrive as the batch advances
    print(engine.metrics.aggregate())
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..faults import active as faults_active
from ..faults import get_injector
from ..nn.quantized import QUANT_MODES, quantize_for_inference
from ..telemetry import enabled as telemetry_enabled
from ..telemetry import get_registry, render_prometheus, span
from .api import RequestHandle
from .metrics import ServingMetrics
from .resilience import ResilienceConfig, resilient_step
from .sampling import SamplingParams
from .scheduler import (
    FINISH_CANCELLED,
    FINISH_DEADLINE,
    FINISH_SHED,
    ContinuousBatchScheduler,
    Request,
    StepEvent,
    validated_prompt,
)


@dataclass
class GenerationResult:
    """Final state of one request: generated ids plus the finish reason."""

    request_id: int
    prompt: np.ndarray
    tokens: List[int] = field(default_factory=list)
    finish_reason: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.finish_reason is not None

    def full_sequence(self) -> np.ndarray:
        """Prompt and generated tokens as one id array."""
        return np.concatenate([
            np.asarray(self.prompt, dtype=np.int64).reshape(-1),
            np.asarray(self.tokens, dtype=np.int64),
        ])


class ServingEngine:
    """Batched inference engine over a KV-cached decoder language model.

    ``model`` must expose the incremental-decoding protocol of
    :class:`repro.models.decoder.ButterflyDecoderLM` (``config``,
    ``make_cache``, ``prefill``, ``decode_step``); the engine puts it in
    eval mode and never trains it.

    ``quantize`` serves a *storage-tier replica*: the model is run
    through :func:`repro.nn.quantize_for_inference` at construction and
    the engine decodes against the reduced-storage copy (any of
    :data:`repro.nn.QUANT_MODES`, dequant-on-the-fly kernels) while the
    caller's model object stays untouched in full precision.  This is
    the serving-side switch for the reduced-precision datapath the
    hardware model quantifies.

    ``backend`` selects the kernel execution backend (``"serial"`` /
    ``"threaded"``, :mod:`repro.kernels.backend`); every ``step()`` runs
    under it.  Backends never change numerics, so serial and threaded
    engines generate identical tokens.

    ``resilience`` (:class:`repro.serving.resilience.ResilienceConfig`)
    governs fault recovery, per-request deadlines and the slow-step
    watchdog.  The retry/rollback machinery engages only while a fault
    injector is installed (:mod:`repro.faults`); deadlines and the
    watchdog run whenever configured.
    """

    QUANTIZE_MODES = (None, *QUANT_MODES)

    def __init__(
        self,
        model,
        max_batch_size: int = 8,
        admission=None,
        seed: int = 0,
        clock=None,
        quantize: Optional[str] = None,
        backend: Optional[str] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        if quantize not in self.QUANTIZE_MODES:
            raise ValueError(
                f"quantize must be one of {self.QUANTIZE_MODES}, got {quantize!r}"
            )
        self.quantize = quantize
        if backend is None:
            backend = getattr(getattr(model, "config", None), "backend", "serial")
        from ..kernels.backend import resolve_backend

        self._backend = resolve_backend(backend)  # validates the name eagerly
        if quantize is not None:
            model = quantize_for_inference(model, mode=quantize)
        self.scheduler = ContinuousBatchScheduler(
            model, max_batch_size=max_batch_size, admission=admission, seed=seed,
        )
        self.metrics = ServingMetrics(**({"clock": clock} if clock else {}))
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._results: Dict[int, GenerationResult] = {}
        self._deadlines: Dict[int, float] = {}
        self._next_id = 0
        self._shut_down = False
        # Serializes every state mutation (submit/cancel/step/shutdown)
        # so callers on other threads see atomic transitions.  The HTTP
        # control plane itself makes every engine call from its one loop
        # thread, but whoever started it in a `ServerThread` (tests,
        # benches, the CLI self-test) still reaches the engine from
        # theirs.  Reentrant: shutdown's drain runs step() under the
        # same lock.
        self._lock = threading.RLock()

    @property
    def backend(self) -> str:
        """Name of the kernel backend every step runs under."""
        return self._backend.name

    # ------------------------------------------------------------------
    @property
    def model(self):
        return self.scheduler.model

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work()

    def submit(
        self, prompt: np.ndarray, params: Optional[SamplingParams] = None
    ) -> RequestHandle:
        """Queue a prompt for generation; returns the request handle.

        The returned :class:`~repro.serving.api.RequestHandle` is an
        ``int`` subclass, so callers that treat it as the bare request
        id keep working (that view is the deprecated shim — prefer the
        handle's ``stream``/``result``/``finish_reason`` accessors).

        Validation happens before any engine state changes: an invalid
        prompt raises without burning a request id or leaving a
        half-registered result.  When the admission policy implements
        ``shed_reason`` (:class:`~repro.serving.admission.
        LoadSheddingAdmission`) and refuses the submission, the request
        is registered already finished with ``finish_reason="shed"``
        instead of joining the queue.
        """
        with self._lock:
            if self._shut_down:
                raise RuntimeError(
                    "engine is shut down and no longer admits requests"
                )
            params = params or SamplingParams()
            prompt = validated_prompt(prompt, self.model.config.vocab_size)

            deadline_s = params.deadline_s
            if deadline_s is None:
                deadline_s = self.resilience.default_deadline_s

            shed_reason = getattr(
                self.scheduler.admission, "shed_reason", None
            )
            reason = (
                shed_reason(self.scheduler.queue_depth, deadline_s)
                if shed_reason is not None else None
            )
            if reason is not None:
                request_id = self._next_id
                self._next_id += 1
                result = GenerationResult(request_id, prompt)
                result.finish_reason = FINISH_SHED
                self._results[request_id] = result
                self.metrics.on_submit(request_id, prompt_tokens=prompt.size)
                self.metrics.on_finish(request_id, FINISH_SHED)
                self.metrics.registry.counter(
                    "serving_shed_total", reason=reason
                ).inc()
                return RequestHandle(request_id, self)

            request_id = self._next_id
            # add_request re-validates; only commit the id and register
            # engine-side state once the scheduler has accepted the
            # request.
            self.scheduler.add_request(Request(request_id, prompt, params))
            self._next_id += 1
            self._results[request_id] = GenerationResult(request_id, prompt)
            self.metrics.on_submit(request_id, prompt_tokens=prompt.size)
            if deadline_s is not None:
                self._deadlines[request_id] = self.metrics.clock() + deadline_s
            return RequestHandle(request_id, self)

    def cancel(self, request_id: int) -> bool:
        """Cancel a queued or running request; False if unknown/finished."""
        with self._lock:
            result = self._results.get(request_id)
            if result is None or result.finished:
                return False
            if not self.scheduler.cancel(request_id):
                return False
            # Queued requests vanish immediately; running rows are
            # dropped at the next step, which emits the cancellation
            # event.  Either way the result is final now.
            result.finish_reason = FINISH_CANCELLED
            self._deadlines.pop(request_id, None)
            self.metrics.on_finish(request_id, FINISH_CANCELLED)
            return True

    def result(self, request_id: int) -> GenerationResult:
        return self._results[request_id]

    # ------------------------------------------------------------------
    def _expire_deadlines(self) -> None:
        """Cancel live requests whose wall-clock deadline has passed."""
        if not self._deadlines:
            return
        now = self.metrics.clock()
        for request_id, expires_at in list(self._deadlines.items()):
            result = self._results[request_id]
            if result.finished:
                del self._deadlines[request_id]
                continue
            if now < expires_at:
                continue
            del self._deadlines[request_id]
            # The scheduler drops the row at the top of the next step and
            # emits a "cancelled" event; the engine-side reason recorded
            # here takes precedence (the event handler skips events whose
            # result is already final).
            self.scheduler.cancel(request_id)
            result.finish_reason = FINISH_DEADLINE
            self.metrics.on_finish(request_id, FINISH_DEADLINE)
            self.metrics.registry.counter(
                "serving_deadline_exceeded_total"
            ).inc()

    def step(self) -> List[StepEvent]:
        """Advance every live request by one token; record metrics.

        While a fault injector is active (:mod:`repro.faults`) and
        resilience is enabled, the scheduler step runs under
        :func:`~repro.serving.resilience.resilient_step`: injected
        transient faults roll the batch back and retry bit-identically;
        unrecoverable ones fail a single victim request with
        ``finish_reason="error"``.
        """
        from ..kernels.backend import use_backend

        with self._lock:
            if self._shut_down:
                return []
            self._expire_deadlines()
            config = self.resilience
            step_started = self.metrics.clock()
            with span("serve.step", batch=self.scheduler.batch_size,
                      queued=self.scheduler.queue_depth):
                with use_backend(self._backend):
                    if config.enabled and faults_active():
                        events, report = resilient_step(self.scheduler, config)
                        if report.retries:
                            self.metrics.registry.counter(
                                "serving_fault_retries_total"
                            ).inc(report.retries)
                        if report.rollbacks:
                            self.metrics.registry.counter(
                                "serving_fault_rollbacks_total"
                            ).inc(report.rollbacks)
                        if report.failed_events:
                            self.metrics.registry.counter(
                                "serving_request_errors_total"
                            ).inc(len(report.failed_events))
                    else:
                        events = self.scheduler.step()
            if (
                config.watchdog_step_s is not None
                and self.metrics.clock() - step_started > config.watchdog_step_s
            ):
                self.metrics.registry.counter(
                    "serving_watchdog_slow_steps_total").inc()
            for event in events:
                result = self._results[event.request_id]
                if event.token is not None:
                    result.tokens.append(event.token)
                    self.metrics.on_token(event.request_id)
                if event.finished and event.finish_reason != FINISH_CANCELLED \
                        and not result.finished:
                    result.finish_reason = event.finish_reason
                    self._deadlines.pop(event.request_id, None)
                    self.metrics.on_finish(
                        event.request_id, event.finish_reason
                    )
            self.metrics.on_step(
                queue_depth=self.scheduler.queue_depth,
                batch_size=self.scheduler.batch_size,
            )
            return events

    def metrics_snapshot(self) -> Dict[str, object]:
        """Aggregate summary plus every engine-local instrument's state.

        ``aggregate`` is :meth:`ServingMetrics.aggregate`;
        ``instruments`` maps ``name{labels}`` keys to counter/gauge
        values or histogram summaries (count/sum/min/max/mean/p50/p95/
        p99/buckets) from the engine-local registry.  When the global
        telemetry opt-in is on, process-wide instruments (kernel
        counters etc.) are included under ``global_instruments``.
        """
        snapshot: Dict[str, object] = {
            "aggregate": self.metrics.aggregate(),
            "instruments": self.metrics.registry.snapshot(),
        }
        if telemetry_enabled():
            snapshot["global_instruments"] = get_registry().snapshot()
        if faults_active():
            snapshot["faults"] = get_injector().snapshot()
        return snapshot

    def render_prometheus(self) -> str:
        """Engine-local metrics (plus the global registry when enabled)
        in the Prometheus text exposition format."""
        registries = [self.metrics.registry]
        if telemetry_enabled():
            registries.append(get_registry())
        return render_prometheus(*registries)

    def run(self, max_steps: Optional[int] = None) -> Dict[int, GenerationResult]:
        """Drain the queue and all running requests; return every result."""
        steps = 0
        while self.has_work:
            if max_steps is not None and steps >= max_steps:
                break
            made_progress = bool(self.step())
            steps += 1
            if not made_progress and self.scheduler.batch_size == 0:
                raise RuntimeError(
                    "scheduler made no progress: the admission policy "
                    "rejects every queued request"
                )
        return dict(self._results)

    # ------------------------------------------------------------------
    @property
    def shut_down(self) -> bool:
        """Whether :meth:`shutdown` has run; a shut-down engine refuses
        new submissions."""
        return self._shut_down

    def shutdown(
        self, drain: bool = True, max_steps: Optional[int] = None
    ) -> Dict[int, GenerationResult]:
        """Stop the engine; idempotent, and no stream is left hanging.

        With ``drain=True`` (the default) the engine first runs the
        queue and every in-flight request to completion (bounded by
        ``max_steps`` when given); with ``drain=False`` it stops
        immediately.  Either way, every request still live afterwards is
        flushed to a terminal ``finish_reason="cancelled"`` — results
        are final, :meth:`stream` iterators terminate instead of
        spinning on a batch that will never advance — and the scheduler
        is emptied so the batch KV cache is released.  Subsequent
        :meth:`submit` calls raise; repeated shutdowns are no-ops
        returning the same results.
        """
        with self._lock:
            if self._shut_down:
                return dict(self._results)
            if drain:
                self.run(max_steps)
            self._shut_down = True
            for request_id, result in self._results.items():
                if result.finished:
                    continue
                # Flush the pending terminal event engine-side: the
                # scheduler would only emit it on a step that will never
                # happen now.
                self.scheduler.cancel(request_id)
                result.finish_reason = FINISH_CANCELLED
                self._deadlines.pop(request_id, None)
                self.metrics.on_finish(request_id, FINISH_CANCELLED)
            self.scheduler.active.clear()
            self.scheduler.waiting.clear()
            self.scheduler.cache = None
            self._deadlines.clear()
            return dict(self._results)

    def drain(
        self, timeout_s: Optional[float] = None
    ) -> Dict[int, GenerationResult]:
        """Graceful stop (:class:`~repro.serving.api.Engine` protocol):
        finish every queued and in-flight request, then shut down.

        Raises ``TimeoutError`` when ``timeout_s`` (measured on the
        engine clock) elapses with work still live — a hung request is
        an error, not a silent stall.  Idempotent.
        """
        deadline = (
            None if timeout_s is None else self.metrics.clock() + timeout_s
        )
        while True:
            with self._lock:
                if self._shut_down or not self.has_work:
                    return self.shutdown(drain=False)
                self.step()
            if deadline is not None and self.metrics.clock() > deadline:
                live = [
                    rid for rid, r in self._results.items() if not r.finished
                ]
                raise TimeoutError(
                    f"requests {live} unfinished after {timeout_s}s"
                )

    def close(self) -> Dict[int, GenerationResult]:
        """Hard stop (:class:`~repro.serving.api.Engine` protocol):
        equivalent to ``shutdown(drain=False)`` — still-live requests
        are flushed to ``finish_reason="cancelled"``.  Idempotent."""
        return self.shutdown(drain=False)

    def health(self) -> Dict[str, object]:
        """Liveness summary (:class:`~repro.serving.api.Engine`
        protocol).  A single in-process engine is one implicit worker:
        healthy until shut down."""
        healthy = not self._shut_down
        return {
            "healthy": healthy,
            "workers_alive": 1 if healthy else 0,
            "workers_total": 1,
            "workers": {0: {"alive": healthy, "restarts": 0}},
        }

    def stream(self, request_id: int) -> Iterator[int]:
        """Yield the request's tokens as they are generated.

        Drives :meth:`step` while the request is live, so other
        in-flight requests advance alongside it (their tokens are
        recorded in their own results).  Safe against a concurrent
        :meth:`shutdown`: the iterator observes the flushed
        ``finish_reason="cancelled"`` and terminates instead of
        stepping an emptied scheduler (or hanging).
        """
        if request_id not in self._results:
            raise KeyError(f"unknown request id {request_id}")
        emitted = 0
        while True:
            result = self._results[request_id]
            while emitted < len(result.tokens):
                yield result.tokens[emitted]
                emitted += 1
            if result.finished:
                return
            with self._lock:
                # Re-check under the lock: a shutdown that won the race
                # has already flushed every live request to "cancelled"
                # (atomically, under this same lock), so the next top-of-
                # loop iteration observes the terminal state and returns.
                if result.finished or self._shut_down:
                    continue
                if not self.has_work:
                    return
                if not self.step() and self.scheduler.batch_size == 0:
                    raise RuntimeError(
                        "scheduler made no progress: the admission policy "
                        "rejects every queued request"
                    )

"""`ServingEngine`: the submit/stream/cancel API over continuous batching.

The engine is :class:`repro.serving.scheduler.ContinuousBatchScheduler`
plus resilience (:mod:`repro.serving.resilience`) plus a
:class:`repro.serving.requests.RequestTable`, which holds ids, results,
deadlines, streams and :class:`repro.serving.metrics.ServingMetrics`.  It
is synchronous by design — ``step()`` advances the world one token — so
behavior is deterministic and testable, while the API mirrors what an
async front-end would expose.

Typical use::

    engine = ServingEngine(model, max_batch_size=8)
    rid = engine.submit(prompt, SamplingParams(max_new_tokens=32, seed=0))
    for token in engine.stream(rid):
        ...                       # tokens arrive as the batch advances
    print(engine.metrics.aggregate())
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from ..faults import active as faults_active
from ..faults import get_injector
from ..nn.quantized import quantize_for_inference
from ..telemetry import enabled as telemetry_enabled
from ..telemetry import get_registry, render_prometheus, span
from .api import RequestHandle
from .metrics import ServingMetrics
from .requests import GenerationResult, RequestTable
from .resilience import ResilienceConfig, resilient_step
from .sampling import SamplingParams
from .scheduler import FINISH_CANCELLED, ContinuousBatchScheduler, Request, StepEvent

class ServingEngine:
    """Batched inference engine over a KV-cached decoder language model.

    ``model`` must expose the incremental-decoding protocol of
    :class:`repro.models.decoder.ButterflyDecoderLM` (``config``,
    ``make_cache``, ``prefill``, ``decode_step``); the engine puts it in
    eval mode and never trains it.

    ``quantize`` serves a *storage-tier replica*: the model is run
    through :func:`repro.nn.quantize_for_inference` at construction and
    the engine decodes against the copy whose dense weights are int8
    (``quantize="int8"``, the one stored format; dequant-on-the-fly
    kernels; butterfly ladders stay fp) while the
    caller's model object stays untouched in full precision.  This is
    the serving-side switch for the reduced-precision datapath the
    hardware model quantifies.

    ``resilience`` (:class:`repro.serving.resilience.ResilienceConfig`)
    governs fault recovery.  The retry/rollback machinery engages only
    while a fault injector is installed (:mod:`repro.faults`).
    """

    def __init__(
        self,
        model,
        max_batch_size: int = 8,
        admission=None,
        seed: int = 0,
        clock=None,
        quantize: Optional[str] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.quantize = quantize
        if quantize is not None:
            model = quantize_for_inference(model, mode=quantize)
        self.scheduler = ContinuousBatchScheduler(
            model, max_batch_size=max_batch_size, seed=seed,
        )
        self.admission = admission
        self.metrics = ServingMetrics(**({"clock": clock} if clock else {}))
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.requests = RequestTable(
            self.metrics, self.model.config.vocab_size, "serving_shed_total",
        )

    # ------------------------------------------------------------------
    @property
    def model(self):
        return self.scheduler.model

    @property
    def has_work(self) -> bool:
        return self.requests.has_work

    def submit(
        self, prompt: np.ndarray, params: Optional[SamplingParams] = None
    ) -> RequestHandle:
        """Queue a prompt for generation; returns the request handle.

        Validation happens before any engine state changes: an invalid
        prompt raises without burning a request id or leaving a
        half-registered result.  When the admission policy
        (:class:`~repro.serving.admission.LoadSheddingAdmission`) refuses
        the submission, the request is registered already finished with
        ``finish_reason="shed"`` instead of joining the queue.
        """
        request_id = self.requests.submit(
            prompt, params or SamplingParams(),
            lambda rid, prompt, params: self.scheduler.add_request(
                Request(rid, prompt, params)),
            self.admission, lambda: self.scheduler.queue_depth,
        )
        return RequestHandle(request_id, self)

    def cancel(self, request_id: int) -> bool:
        """Cancel a queued or running request; False if unknown/finished."""
        with self.requests.lock:
            # Queued requests vanish immediately; running rows are dropped
            # at the next step.  Either way the result is final now.
            return self.scheduler.cancel(request_id) \
                and self.requests.finish(request_id, FINISH_CANCELLED)

    def result(self, request_id: int) -> GenerationResult:
        return self.requests.results[request_id]

    # ------------------------------------------------------------------
    def step(self) -> List[StepEvent]:
        """Advance every live request by one token; record metrics.

        While a fault injector is active (:mod:`repro.faults`) and
        resilience is enabled, the scheduler step runs under
        :func:`~repro.serving.resilience.resilient_step`: injected
        transient faults roll the batch back and retry bit-identically;
        unrecoverable ones fail a single victim request with
        ``finish_reason="error"``.
        """
        with self.requests.lock:
            if self.requests.closed:
                return []
            # An expired row is dropped at the top of this very step; its
            # "cancelled" event then finds the request already terminal.
            self.requests.expire(self.scheduler.cancel)
            config = self.resilience
            with span("serve.step", batch=self.scheduler.batch_size,
                      queued=self.scheduler.queue_depth):
                if config.enabled and faults_active():
                    events = resilient_step(
                        self.scheduler, config, self.metrics.registry)
                else:
                    events = self.scheduler.step()
            for event in events:
                if event.token is not None:
                    self.requests.append(event.request_id, event.token)
                if event.finished:
                    self.requests.finish(event.request_id, event.finish_reason)
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

    def _advance(self) -> None:
        """One step, when any request is live."""
        with self.requests.lock:
            if self.has_work:
                self.step()

    def run(self) -> Dict[int, GenerationResult]:
        """Step until no request is live; return every result.  The
        engine stays open."""
        while self.has_work:
            self._advance()
        return dict(self.requests.results)

    def drain(
        self, timeout_s: Optional[float] = None
    ) -> Dict[int, GenerationResult]:
        """Graceful stop (:class:`~repro.serving.api.Engine` protocol):
        stop admitting, finish every queued and in-flight request, then
        :meth:`close`.  Raises ``TimeoutError`` when ``timeout_s``
        (engine clock) elapses with work still live.  Idempotent."""
        self.requests.admitting = False
        self.requests.run(self._advance, timeout_s)
        return self.close()

    def close(self) -> Dict[int, GenerationResult]:
        """Hard stop (:class:`~repro.serving.api.Engine` protocol): flush
        still-live requests to ``finish_reason="cancelled"`` and release
        the batch KV cache.  Idempotent."""
        with self.requests.lock:
            if self.requests.close():
                self.scheduler.active.clear()
                self.scheduler.waiting.clear()
                self.scheduler.cache = None
            return dict(self.requests.results)

    def health(self) -> Dict[str, object]:
        """Liveness summary (:class:`~repro.serving.api.Engine`
        protocol).  A single in-process engine is one implicit worker:
        healthy until closed."""
        healthy = not self.requests.closed
        return {
            "healthy": healthy,
            "workers_alive": 1 if healthy else 0,
            "workers_total": 1,
            "workers": {0: {"alive": healthy, "restarts": 0}},
        }

    def stream(self, request_id: int) -> Iterator[int]:
        """Yield the request's tokens as they are generated, stepping the
        engine while it is live (other in-flight requests advance
        alongside it)."""
        return self.requests.stream(request_id, self._advance)

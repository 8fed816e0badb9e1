"""Batched inference serving: KV caching, continuous batching, engine API.

This package turns the reproduction into an inference runtime, the
ROADMAP's "serve heavy traffic" direction made concrete:

* :mod:`repro.serving.kv_cache` — per-layer key/value caches so a decode
  step costs one single-token forward instead of the O(T^2) full-window
  recompute;
* :mod:`repro.serving.sampling` — vectorized Gumbel-max sampling with
  temperature / top-k / top-p, shared with ``ButterflyDecoderLM.generate``;
* :mod:`repro.serving.scheduler` — continuous batching: request queue,
  prefill/decode interleaving and batch compaction;
* :mod:`repro.serving.requests` — :class:`RequestTable`, the one place
  a request's state changes: ids, results, deadlines, streams and the
  terminal transition, owned by both engines;
* :mod:`repro.serving.engine` — :class:`ServingEngine` submit/stream/
  cancel API with per-request and aggregate metrics;
* :mod:`repro.serving.admission` — queue-depth / deadline load shedding
  at submit, the engines' one admission policy;
* :mod:`repro.serving.metrics` — TTFT / tokens-per-second / queue-depth
  accounting;
* :mod:`repro.serving.resilience` — step-level snapshot/rollback, retry
  and single-request fault isolation over the
  :mod:`repro.faults` injection framework;
* :mod:`repro.serving.cluster` / :mod:`repro.serving.worker` —
  supervised multi-worker serving: N engine replicas in child-process
  fault domains under a heartbeat supervisor with bit-identical session
  failover, restart budgets and graceful drain;
* :mod:`repro.serving.api` — the unified :class:`Engine` protocol both
  engine classes conform to — the only supported integration surface
  for front ends — and the :class:`RequestHandle` id ``submit`` returns;
* :mod:`repro.serving.server` — the asyncio HTTP/1.1 control plane
  (``/v1/generate`` with SSE streaming, ``/v1/cancel``, ``/healthz``,
  ``/metrics``) over any :class:`Engine`.

Import structure: ``sampling``, ``kv_cache`` and ``metrics`` are
self-contained (numpy/stdlib only) and imported eagerly — they are the
pieces :mod:`repro.models.decoder` pulls in, so they must not import the
model zoo back.  ``engine``, ``scheduler`` and the rest sit above the
models layer and are loaded lazily on first attribute access to keep the
package acyclic.
"""

from __future__ import annotations

from .kv_cache import DecoderKVCache, LayerKV
from .metrics import RequestMetrics, ServingMetrics
from .sampling import SamplingParams, filter_logits, sample_logits

_LAZY = {
    "Engine": "api",
    "RequestHandle": "api",
    "ServingHTTPServer": "server",
    "ServerThread": "server",
    "start_http_server": "server",
    "run_http_server": "server",
    "LoadSheddingAdmission": "admission",
    "ContinuousBatchScheduler": "scheduler",
    "Request": "scheduler",
    "StepEvent": "scheduler",
    "GenerationResult": "requests",
    "ServingEngine": "engine",
    "ResilienceConfig": "resilience",
    "SchedulerSnapshot": "resilience",
    "resilient_step": "resilience",
    "ClusterEngine": "cluster",
    "derive_request_seed": "cluster",
    "WorkerConfig": "worker",
    "child_environment": "worker",
    "worker_main": "worker",
    "WORKER_FAULT_EXIT": "worker",
    "BLAS_PIN_VARS": "worker",
}

__all__ = [
    "BLAS_PIN_VARS",
    "ClusterEngine",
    "ContinuousBatchScheduler",
    "DecoderKVCache",
    "Engine",
    "GenerationResult",
    "LayerKV",
    "LoadSheddingAdmission",
    "Request",
    "RequestHandle",
    "RequestMetrics",
    "ResilienceConfig",
    "SamplingParams",
    "SchedulerSnapshot",
    "ServerThread",
    "ServingEngine",
    "ServingHTTPServer",
    "ServingMetrics",
    "StepEvent",
    "WORKER_FAULT_EXIT",
    "WorkerConfig",
    "child_environment",
    "derive_request_seed",
    "filter_logits",
    "resilient_step",
    "run_http_server",
    "sample_logits",
    "start_http_server",
    "worker_main",
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

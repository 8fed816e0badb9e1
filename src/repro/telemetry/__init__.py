"""Unified telemetry: counters, gauges, histograms, and tracing spans.

One observability substrate for the whole stack — kernels, training,
serving, and the hardware functional engines all report into the same
process-wide :class:`Registry` and span collector, the way production
serving systems expose engine counters and latency histograms as
first-class signals.

**Opt-in and near-zero overhead when off.**  Telemetry is disabled by
default; enable it with ``REPRO_TELEMETRY=1`` in the environment or
:func:`enable` / :func:`use_telemetry` in code.  While disabled, the
gated entry points (:func:`counter_inc`, :func:`gauge_set`,
:func:`span`) return immediately without touching the
registry, so instrumented hot paths stay within noise of uninstrumented
ones (gated by the ``telemetry_overhead`` benchmark).  Instrument
*objects* obtained directly from a :class:`Registry` are always live —
that is how the serving engine keeps its bounded always-on request
metrics while the global opt-in stays off.

**Bit-neutral.**  Instrumentation only records scalar observations;
enabling it never changes kernel numerics (asserted by a token-parity
test in ``tests/telemetry``).

Quick tour::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("decode.step", request_id=7):
        ...
    telemetry.counter_inc("kernels_plan_cache_hits_total")
    telemetry.get_registry().histogram("serving_ttft_ms").observe(12.5)

    print(telemetry.render_span_tree())
    print(telemetry.render_prometheus())
    telemetry.write_chrome_trace("trace.json")   # chrome://tracing

Metric names follow ``subsystem_op_unit`` (see CONTRIBUTING): the
subsystem prefix first (``kernels_``, ``serving_``, ``training_``,
``hardware_``), then the operation, then the unit (``_total`` for
counters, ``_ms`` / ``_seconds`` for times, ``_per_s`` for rates).
"""

from __future__ import annotations

from .prometheus import render_prometheus
from .registry import (
    DEFAULT_MS_BOUNDARIES,
    DEFAULT_RESERVOIR,
    STATE,
    Counter,
    Gauge,
    Histogram,
    Registry,
    Reservoir,
    counter_inc,
    disable,
    enable,
    enabled,
    gauge_set,
    get_registry,
    reset,
    set_registry,
    use_telemetry,
)
from .spans import (
    MAX_SPANS,
    Span,
    SpanCollector,
    chrome_trace_events,
    clear_spans,
    get_collector,
    render_span_tree,
    span,
    span_records,
    span_tree,
    top_ops,
    write_chrome_trace,
)

__all__ = [
    "DEFAULT_MS_BOUNDARIES",
    "DEFAULT_RESERVOIR",
    "MAX_SPANS",
    "STATE",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Reservoir",
    "Span",
    "SpanCollector",
    "chrome_trace_events",
    "clear_all",
    "clear_spans",
    "counter_inc",
    "disable",
    "enable",
    "enabled",
    "gauge_set",
    "get_collector",
    "get_registry",
    "render_prometheus",
    "render_span_tree",
    "reset",
    "set_registry",
    "span",
    "span_records",
    "span_tree",
    "top_ops",
    "use_telemetry",
    "write_chrome_trace",
]


def clear_all() -> None:
    """Reset the default registry and drop every recorded span."""
    reset()
    clear_spans()

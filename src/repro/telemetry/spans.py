"""Tracing spans: a hierarchical timing tree with Chrome-trace export.

``with span("decode.step", request_id=3):`` records one timed interval.
Spans nest through a thread-local stack, so concurrently decoding
threads each get their own well-formed tree; completed spans land in a
bounded process-wide collector (overflow is counted, never unbounded).

The collector supports three read-side views:

* :func:`span_tree` / :func:`render_span_tree` — spans aggregated by
  their name-path (``serve.step > serve.decode > kernels.attention_decode``),
  with call counts, total/self time, and share of the root's wall time;
* :func:`top_ops` — per-name totals across the whole trace, the
  "where did the time go" table ``repro profile`` prints;
* :func:`chrome_trace_events` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` JSON (``ph: "X"`` complete events, microsecond
  timestamps) loadable in ``chrome://tracing`` or Perfetto.

Disabled fast path: :func:`span` returns a shared no-op context manager
— no clock read, no allocation, no stack push — so instrumented hot
loops cost two attribute loads and one call while telemetry is off.
Timing comes from the default registry's injectable clock, so tests
drive deterministic span durations.
"""

from __future__ import annotations

import itertools
import json
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from .registry import STATE, get_registry

__all__ = [
    "Span",
    "SpanCollector",
    "chrome_trace_events",
    "clear_spans",
    "get_collector",
    "render_span_tree",
    "span",
    "span_records",
    "span_tree",
    "top_ops",
    "write_chrome_trace",
]

#: Collector capacity: beyond this, completed spans are dropped and
#: counted (`dropped`), bounding memory on long-running processes.
MAX_SPANS = 200_000


class Span:
    """One live (then completed) timed interval."""

    __slots__ = (
        "collector", "span_id", "parent_id", "name", "attrs",
        "start", "duration", "depth", "thread_id",
    )

    def __init__(self, collector: "SpanCollector", name: str, attrs: dict) -> None:
        self.collector = collector
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.duration: Optional[float] = None
        self.depth = 0
        self.thread_id = 0

    def __enter__(self) -> "Span":
        self.collector._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Unwind unconditionally: an exception inside the span must pop
        # the stack (or every later span in this thread mis-parents) and
        # still record the interval, tagged with the error type.
        if exc_type is not None:
            self.attrs = dict(self.attrs, error=exc_type.__name__)
        self.collector._close(self)
        return False


class _NoopSpan:
    """Shared reusable no-op for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class SpanCollector:
    """Bounded store of completed spans plus per-thread open stacks."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._records: List[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.dropped = 0

    # -- write side ----------------------------------------------------
    # Lock-free: a decode step opens ~18 spans in well under a
    # millisecond, so two lock round trips per span were a measurable
    # share of what the spans measure.  ``next`` on an ``itertools.count``
    # and ``list.append`` are each one atomic operation under the GIL;
    # the stack and the thread ident live on the thread's own TLS.  Only
    # the overflow counter (a read-modify-write) takes the lock, so under
    # contention the store can overshoot ``max_spans`` by at most one
    # span per racing thread — bounded all the same.
    def _open(self, span: Span) -> None:
        tls = self._tls
        try:
            stack = tls.stack
        except AttributeError:  # this thread's first span
            tls.ident = threading.get_ident()
            stack = tls.stack = []
        span.span_id = next(self._ids)
        if stack:
            span.parent_id = stack[-1].span_id
            span.depth = len(stack)
        span.thread_id = tls.ident
        stack.append(span)
        span.start = get_registry().clock()

    def _close(self, span: Span) -> None:
        span.duration = get_registry().clock() - span.start
        stack = getattr(self._tls, "stack", ())
        # The span being closed is normally the top of the stack; pop
        # defensively by identity so a mismatched exit cannot corrupt
        # every later parent link.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if len(self._records) >= self.max_spans:
            with self._lock:
                self.dropped += 1
            return
        self._records.append(span)

    # -- read side -----------------------------------------------------
    def records(self) -> List[Span]:
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0


_collector = SpanCollector()


def get_collector() -> SpanCollector:
    return _collector


def span(name: str, **attrs):
    """Open a timed span: ``with span("decode.step", request_id=rid):``.

    Returns a shared no-op context manager while telemetry is disabled,
    so call sites never need their own guard.
    """
    if not STATE.on:
        return _NOOP
    return Span(_collector, name, attrs)


def span_records() -> List[Span]:
    """Every completed span, in completion order."""
    return _collector.records()


def clear_spans() -> None:
    """Drop all completed spans (tests and the profile CLI)."""
    _collector.clear()


# ----------------------------------------------------------------------
# Aggregated views
# ----------------------------------------------------------------------
def _paths(records: Iterable[Span]) -> List[Tuple[Tuple[str, ...], Span]]:
    by_id = {r.span_id: r for r in records}
    out = []
    for r in by_id.values():
        path = [r.name]
        cursor = r
        while cursor.parent_id is not None:
            parent = by_id.get(cursor.parent_id)
            if parent is None:
                break  # parent still open or dropped: root the path here
            path.append(parent.name)
            cursor = parent
        out.append((tuple(reversed(path)), r))
    return out


def span_tree() -> Dict[Tuple[str, ...], Dict[str, float]]:
    """Aggregate spans by name-path: ``{path: {count, total_s, self_s}}``.

    ``self_s`` is the path's total minus the totals of its direct
    children, i.e. time spent at that node itself.
    """
    agg: Dict[Tuple[str, ...], Dict[str, float]] = {}
    for path, record in _paths(span_records()):
        node = agg.setdefault(path, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        node["count"] += 1
        node["total_s"] += record.duration or 0.0
    for path, node in agg.items():
        child_total = sum(
            other["total_s"] for other_path, other in agg.items()
            if len(other_path) == len(path) + 1 and other_path[:-1] == path
        )
        node["self_s"] = max(0.0, node["total_s"] - child_total)
    return agg


def render_span_tree(min_share: float = 0.0) -> str:
    """Human-readable indented tree with counts and total/self times."""
    tree = span_tree()
    if not tree:
        return "(no spans recorded)"
    roots_total = sum(n["total_s"] for p, n in tree.items() if len(p) == 1)
    children: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
    for path in tree:
        children.setdefault(path[:-1], []).append(path)
    ordered: List[Tuple[str, ...]] = []

    def visit(prefix: Tuple[str, ...]) -> None:
        for path in sorted(children.get(prefix, ()),
                           key=lambda p: -tree[p]["total_s"]):
            ordered.append(path)
            visit(path)

    visit(())
    lines = [f"{'span':<52} {'count':>7} {'total ms':>10} "
             f"{'self ms':>10} {'share':>6}"]
    for path in ordered:
        node = tree[path]
        share = node["total_s"] / roots_total if roots_total > 0 else 0.0
        if share < min_share and len(path) > 1:
            continue
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{label:<52} {node['count']:>7d} {node['total_s'] * 1e3:>10.2f} "
            f"{node['self_s'] * 1e3:>10.2f} {share:>6.1%}"
        )
    return "\n".join(lines)


def top_ops(n: int = 10) -> List[Dict[str, object]]:
    """Per-name totals across the trace, heaviest first."""
    agg: Dict[str, Dict[str, float]] = {}
    for record in span_records():
        node = agg.setdefault(record.name, {"count": 0, "total_s": 0.0})
        node["count"] += 1
        node["total_s"] += record.duration or 0.0
    ranked = sorted(agg.items(), key=lambda kv: -kv[1]["total_s"])
    return [
        {"name": name, "count": int(node["count"]), "total_s": node["total_s"]}
        for name, node in ranked[:n]
    ]


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def chrome_trace_events() -> List[dict]:
    """Spans as Chrome ``trace_event`` complete (``ph: "X"``) events.

    Timestamps are microseconds relative to the earliest span, one
    ``tid`` per recording thread — the format ``chrome://tracing`` and
    Perfetto load directly.
    """
    records = span_records()
    if not records:
        return []
    t0 = min(r.start for r in records)
    events = []
    for r in records:
        args = {k: v for k, v in r.attrs.items()
                if isinstance(v, (str, int, float, bool))}
        events.append({
            "name": r.name,
            "ph": "X",
            "ts": (r.start - t0) * 1e6,
            "dur": (r.duration or 0.0) * 1e6,
            "pid": 1,
            "tid": r.thread_id % 1_000_000,
            "args": args,
        })
    return events


def write_chrome_trace(path: str) -> str:
    """Write ``{"traceEvents": [...]}`` JSON to ``path``; returns it."""
    payload = {"traceEvents": chrome_trace_events(),
               "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path

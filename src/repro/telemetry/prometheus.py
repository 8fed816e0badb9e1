"""Prometheus text exposition of one or more registries.

Flat ``metric{label="v"} value`` lines in the Prometheus text format:
counters and gauges render directly; histograms render with cumulative
``_bucket`` lines (``le`` upper bounds plus ``+Inf``), ``_sum`` and
``_count``, and additionally as ``_p50`` / ``_p95`` / ``_p99`` gauges
computed from the bounded reservoir — tail latency readable straight off
the text endpoint without a PromQL ``histogram_quantile`` round trip.

:func:`render_prometheus` with no arguments renders the process-wide
default registry; the serving engine passes its own engine-local
registry alongside, so one scrape covers both.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .registry import Counter, Gauge, Histogram, Registry, get_registry

__all__ = ["render_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _name(raw: str) -> str:
    cleaned = _NAME_RE.sub("_", raw)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _labels(pairs: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{_name(k)}="{v}"' for k, v in pairs]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "NaN"
    as_float = float(value)
    return repr(int(as_float)) if as_float == int(as_float) else repr(as_float)


def render_prometheus(*registries: Registry) -> str:
    """Render registries (default: the process-wide one) as Prometheus text."""
    if not registries:
        registries = (get_registry(),)
    lines: List[str] = []
    seen_types = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for registry in registries:
        for inst in registry.instruments():
            name = _name(inst.name)
            if isinstance(inst, Counter):
                type_line(name, "counter")
                lines.append(f"{name}{_labels(inst.labels)} {_fmt(inst.value)}")
            elif isinstance(inst, Gauge):
                type_line(name, "gauge")
                lines.append(f"{name}{_labels(inst.labels)} {_fmt(inst.value)}")
            elif isinstance(inst, Histogram):
                type_line(name, "histogram")
                cumulative = 0
                for bound, count in zip(inst.boundaries, inst.bucket_counts):
                    cumulative += count
                    le = 'le="%s"' % _fmt(bound)
                    lines.append(
                        f"{name}_bucket{_labels(inst.labels, le)} {cumulative}"
                    )
                inf = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{_labels(inst.labels, inf)} {inst.count}"
                )
                lines.append(f"{name}_sum{_labels(inst.labels)} {_fmt(inst.sum)}")
                lines.append(f"{name}_count{_labels(inst.labels)} {inst.count}")
                for q, suffix in ((50, "p50"), (95, "p95"), (99, "p99")):
                    qname = f"{name}_{suffix}"
                    type_line(qname, "gauge")
                    lines.append(
                        f"{qname}{_labels(inst.labels)} "
                        f"{_fmt(inst.percentile(q))}"
                    )
    return "\n".join(lines) + ("\n" if lines else "")

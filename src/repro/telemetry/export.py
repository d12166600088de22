"""Registry exporters: JSON snapshots and Prometheus text exposition.

Two formats cover the two consumers the ROADMAP cares about: the JSON
snapshot is what ``--stats-out`` writes after an experiment run (one
self-contained file per figure, percentiles included), and the
Prometheus exposition is the pull format a scrape endpoint would serve
(text format version 0.0.4: ``# HELP``/``# TYPE`` headers, cumulative
``_bucket{le=...}`` series, ``_sum``/``_count`` per histogram).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

from repro.telemetry.registry import Histogram, MetricsRegistry, format_series
from repro.telemetry.tracing import AnyTracer


def json_snapshot(
    registry: MetricsRegistry, trace: Optional[AnyTracer] = None
) -> Dict[str, object]:
    """The registry (and optionally a tracer's spans) as one plain dict."""
    data = registry.snapshot()
    if trace is not None:
        data["traces"] = {
            "capacity": trace.capacity,
            "recorded": trace.recorded,
            "dropped": trace.dropped,
            "events": [span.as_dict() for span in trace.spans()],
        }
    return data


def dump_json(
    path: str,
    registry: MetricsRegistry,
    trace: Optional[AnyTracer] = None,
) -> None:
    """Write :func:`json_snapshot` to *path* (pretty-printed)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(json_snapshot(registry, trace), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _series(name: str, labels, extra: Optional[Dict[str, str]] = None) -> str:
    items = list(labels)
    if extra:
        items.extend(extra.items())
    if not items:
        return name
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items)
    return f"{name}{{{inner}}}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format.

    Series are ordered by (name, labels); each metric family emits its
    ``# HELP``/``# TYPE`` header once, before its first series, the help
    text being the name in words.
    """
    lines: List[str] = []
    seen_families = set()

    def header(name: str, mtype: str) -> None:
        if name in seen_families:
            return
        seen_families.add(name)
        lines.append(f"# HELP {name} {name.replace('_', ' ')}")
        lines.append(f"# TYPE {name} {mtype}")

    for kind, name, labels, value in registry.samples():
        header(name, kind)
        if not isinstance(value, Histogram):
            lines.append(f"{_series(name, labels)} {_format_value(value)}")
            continue
        cumulative = 0
        for index, count in enumerate(value.bucket_counts):
            cumulative += count
            bound = math.inf if index >= len(value.bounds) else value.bounds[index]
            lines.append(
                f"{_series(name + '_bucket', labels, {'le': _format_value(bound)})} "
                f"{cumulative}"
            )
        lines.append(f"{_series(name + '_sum', labels)} {_format_value(value.sum)}")
        lines.append(f"{_series(name + '_count', labels)} {value.count}")
    return "\n".join(lines) + "\n" if lines else ""


__all__ = ["json_snapshot", "dump_json", "prometheus_text", "format_series"]

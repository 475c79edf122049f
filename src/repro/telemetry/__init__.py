"""Unified telemetry spine: spans, metric registry, and the JSONL export.

See :mod:`repro.telemetry.facade` for how the pieces fit together and
``docs/telemetry.md`` for the span hierarchy and usage guide.
"""

from repro.telemetry.facade import Telemetry, TelemetryConfig
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricInterval,
    MetricRegistry,
    rollup_counters,
    tenant_metric,
)
from repro.telemetry.sinks import JsonlSink, read_jsonl
from repro.telemetry.spans import Span, Tracer, render_span_tree

__all__ = [
    "Counter",
    "Gauge",
    "JsonlSink",
    "MetricInterval",
    "MetricRegistry",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "read_jsonl",
    "render_span_tree",
    "rollup_counters",
    "tenant_metric",
]

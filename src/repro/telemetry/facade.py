"""The telemetry spine: one tracer + one registry + one JSONL export.

``TenantContext.wire`` builds a single :class:`Telemetry` over the
database's registry and threads it down through the organizer, the
tuners, the what-if optimizer, and the database's serve path, so every
layer reports through the same spine instead of inventing its own
bookkeeping. The organizer is handed the stack's spine; the tuner,
planner and executor accept ``telemetry=None`` and fall back to a bare
:class:`~repro.telemetry.spans.Tracer` (and a private registry where
they count), which keeps them usable alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.sinks import JsonlSink
from repro.telemetry.spans import Tracer


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the telemetry spine."""

    #: sample one per-query span every N accounted executions
    #: (0 disables query spans; counters are always maintained)
    query_sample_every: int = 64
    #: when set, every record is also exported as JSON lines to this path
    jsonl_path: str | Path | None = None


#: finished root spans retained for inspection
MAX_ROOT_SPANS = 64


class Telemetry:
    """Bundles the tracer, the metric registry, and the JSONL export."""

    def __init__(
        self,
        clock: object | None = None,
        config: TelemetryConfig | None = None,
        tenant: str = "",
        registry: MetricRegistry | None = None,
    ) -> None:
        """``tenant`` labels every span record this spine emits (and is
        surfaced for consumers like the fleet rollup); the empty string —
        the single-tenant default — keeps legacy output shapes.
        ``registry`` is where every component of the stack registers its
        counters — a tenant's stack passes its database's registry, so
        the planner's counters sit beside the rest; a fresh one is made
        when omitted."""
        self.config = config or TelemetryConfig()
        self.tenant = tenant
        self.registry = registry if registry is not None else MetricRegistry()
        self.sink: JsonlSink | None = (
            JsonlSink(self.config.jsonl_path)
            if self.config.jsonl_path is not None
            else None
        )
        self.tracer = Tracer(
            clock=clock,
            sink=self.sink,
            max_roots=MAX_ROOT_SPANS,
            tenant=tenant,
        )

    def close(self) -> None:
        """Flush and close the JSONL export, if any (it becomes readable)."""
        if self.sink is not None:
            self.sink.close()

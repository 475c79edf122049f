"""The telemetry spine: one tracer + one registry + shared sinks.

The driver creates a single :class:`Telemetry` on attach and threads it
down through the organizer, the planner, the tuners, the what-if
optimizer, and the database's serve path, so every layer reports through the
same spine instead of inventing its own bookkeeping. Components accept
``telemetry=None`` and fall back to a disabled instance, which keeps
them usable standalone at near-zero overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.sinks import JsonlSink, MultiSink, RingSink, TelemetrySink
from repro.telemetry.spans import Span, Tracer


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the telemetry spine."""

    #: master switch; disabled telemetry still exposes a working registry
    #: (counter bumps are cheap) but records no spans and sinks nothing
    enabled: bool = True
    #: sample one per-query span every N accounted executions
    #: (0 disables query spans; counters are always maintained)
    query_sample_every: int = 64
    #: when set, every record is also exported as JSON lines to this path
    jsonl_path: str | Path | None = None


#: bound of the in-memory record ring
RING_CAPACITY = 4096
#: finished root spans retained for inspection
MAX_ROOT_SPANS = 64


class Telemetry:
    """Bundles the tracer, the metric registry, and the sink stack."""

    def __init__(
        self,
        clock: object | None = None,
        config: TelemetryConfig | None = None,
        tenant: str = "",
    ) -> None:
        """``tenant`` labels every span record this spine emits (and is
        surfaced for consumers like the fleet rollup); the empty string —
        the single-tenant default — keeps legacy output shapes."""
        self.config = config or TelemetryConfig()
        self.tenant = tenant
        self.registry = MetricRegistry()
        self.ring = RingSink(RING_CAPACITY)
        self.jsonl: JsonlSink | None = (
            JsonlSink(self.config.jsonl_path)
            if self.config.jsonl_path is not None
            else None
        )
        sinks: list[TelemetrySink] = [self.ring]
        if self.jsonl is not None:
            sinks.append(self.jsonl)
        self.sink: TelemetrySink = (
            sinks[0] if len(sinks) == 1 else MultiSink(sinks)
        )
        self.tracer = Tracer(
            clock=clock,
            sink=self.sink if self.config.enabled else None,
            enabled=self.config.enabled,
            max_roots=MAX_ROOT_SPANS,
            tenant=tenant,
        )

    @classmethod
    def disabled(cls, clock: object | None = None) -> "Telemetry":
        return cls(clock, TelemetryConfig(enabled=False))

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def last_span(self, name: str | None = None) -> Span | None:
        """Most recent finished root span (optionally by name)."""
        return self.tracer.last_root(name)

    def close(self) -> None:
        """Flush and close the sink stack (JSONL export becomes readable)."""
        self.sink.close()

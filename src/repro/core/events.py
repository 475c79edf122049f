"""Event log of self-management decisions and actions.

Everything the driver and organizer do is recorded here, so experiments can
explain *why* a configuration changed (which trigger fired, what was
forecast, what was applied) — the observability layer a self-managing
system needs to be debuggable.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.telemetry.sinks import JsonlSink

#: events kept in memory; older ones leave the log (the JSONL export, if
#: any, keeps them)
CAPACITY = 1024


class EventKind(enum.Enum):
    OBSERVE = "observe"
    TRIGGER = "trigger"
    SKIP = "skip"
    TUNING_STARTED = "tuning_started"
    TUNING_FINISHED = "tuning_finished"
    ORDER_PLANNED = "order_planned"
    APPLY = "apply"
    FAULT = "fault"
    ROLLBACK = "rollback"
    QUARANTINE = "quarantine"
    GUARD = "guard"
    #: the fleet recovered management-layer state — a worker restart, a
    #: checkpoint restore, or a tenant force-quarantined after its
    #: context repeatedly failed to restore
    RECOVERY = "recovery"


@dataclass(frozen=True)
class Event:
    """One logged self-management event.

    ``tenant`` identifies the tenant whose log recorded the event in a
    fleet run; single-tenant runs use the empty string. It does not take
    part in equality, so a one-tenant fleet's events compare equal to a
    legacy single-tenant run's.
    """

    at_ms: float
    kind: EventKind
    message: str
    data: dict[str, object] = field(default_factory=dict)
    tenant: str = field(default="", compare=False)


class EventLog:
    """Bounded in-memory event history.

    The one in-memory home of events. When the telemetry spine exports
    JSONL, every event is also written there as a structured record (type
    ``"event"``), so the export and the event log tell one consistent
    story. The in-memory API is unchanged either way.

    In a fleet each tenant owns one log constructed with its tenant id;
    every event and sink record carries it, so interleaved JSONL output
    from concurrent tenants stays separable.
    """

    def __init__(
        self,
        sink: "JsonlSink | None" = None,
        tenant: str = "",
    ) -> None:
        self._events: deque[Event] = deque(maxlen=CAPACITY)
        self._sink = sink
        self._tenant = tenant

    @property
    def tenant(self) -> str:
        """Tenant id stamped on every event ('' for single-tenant)."""
        return self._tenant

    def log(
        self,
        at_ms: float,
        kind: EventKind,
        message: str,
        **data: object,
    ) -> Event:
        event = Event(
            at_ms=at_ms,
            kind=kind,
            message=message,
            data=data,
            tenant=self._tenant,
        )
        self._events.append(event)
        if self._sink is not None:
            self._sink.emit(
                {
                    "type": "event",
                    "tenant": self._tenant,
                    "at_ms": at_ms,
                    "kind": kind.value,
                    "message": message,
                    "data": dict(data),
                }
            )
        return event

    def events(self, kind: EventKind | None = None) -> tuple[Event, ...]:
        if kind is None:
            return tuple(self._events)
        return tuple(e for e in self._events if e.kind is kind)

    def __len__(self) -> int:
        return len(self._events)

    def latest(self, kind: EventKind | None = None) -> Event | None:
        events = self.events(kind)
        return events[-1] if events else None

"""Tests for tenant labels on events, spans, and exported telemetry."""

import json

from repro.core.events import Event, EventKind, EventLog
from repro.telemetry import Telemetry, TelemetryConfig, read_jsonl
from repro.util.timer import SimulatedClock


def _exporting(tmp_path, tenant=""):
    path = tmp_path / "telemetry.jsonl"
    config = TelemetryConfig(jsonl_path=path)
    return Telemetry(SimulatedClock(), config, tenant=tenant), path


def test_event_log_stamps_its_tenant_on_events_and_records(tmp_path):
    telemetry, path = _exporting(tmp_path, tenant="t5")
    log = EventLog(sink=telemetry.sink, tenant="t5")
    log.log(0.0, EventKind.OBSERVE, "hello", k=1)
    (event,) = log.events()
    assert event.tenant == "t5"
    telemetry.close()
    (record,) = read_jsonl(path)
    assert record["tenant"] == "t5"
    assert record["message"] == "hello"


def test_event_equality_ignores_the_tenant_label():
    # the golden one-tenant identity depends on this: the same event
    # from a fleet tenant and the bare driver must compare equal
    a = Event(1.0, EventKind.OBSERVE, "m", {}, tenant="t0")
    b = Event(1.0, EventKind.OBSERVE, "m", {}, tenant="")
    assert a == b


def test_tracer_labels_span_records_with_its_tenant(tmp_path):
    telemetry, path = _exporting(tmp_path, tenant="t2")
    with telemetry.tracer.span("tuning_pass"):
        pass
    telemetry.close()
    (record,) = read_jsonl(path)
    assert record["tenant"] == "t2"
    assert record["name"] == "tuning_pass"


def test_jsonl_export_carries_the_tenant_through_the_sink(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    telemetry = Telemetry(
        SimulatedClock(),
        TelemetryConfig(jsonl_path=path),
        tenant="t9",
    )
    log = EventLog(sink=telemetry.sink, tenant="t9")
    with telemetry.tracer.span("probe"):
        pass
    log.log(5.0, EventKind.TUNING_FINISHED, "done")
    telemetry.close()

    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records
    assert {r["type"] for r in records} == {"span", "event"}
    assert all(r["tenant"] == "t9" for r in records)


def test_single_tenant_default_keeps_legacy_record_shape(tmp_path):
    telemetry, path = _exporting(tmp_path)
    log = EventLog(sink=telemetry.sink)
    log.log(0.0, EventKind.OBSERVE, "m")
    telemetry.close()
    (record,) = read_jsonl(path)
    # the tenant key exists but is empty — consumers see one stable shape
    assert record["tenant"] == ""

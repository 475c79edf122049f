"""Tests for the Telemetry facade, query-span sampling, and the
EventLog's JSONL mirroring."""

from repro.core.events import EventKind, EventLog
from repro.telemetry import JsonlSink, Telemetry, TelemetryConfig, read_jsonl

from tests.conftest import make_small_database


def test_facade_wires_tracer_registry_and_ring():
    telemetry = Telemetry()
    with telemetry.tracer.span("pass"):
        telemetry.registry.counter("n").inc()
    (root,) = telemetry.tracer.roots()
    assert root.name == "pass" and telemetry.sink is None
    assert telemetry.registry.read("n") == 1.0


def test_facade_jsonl_export(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    telemetry = Telemetry(config=TelemetryConfig(jsonl_path=path))
    assert isinstance(telemetry.sink, JsonlSink)
    with telemetry.tracer.span("pass"):
        pass
    telemetry.close()
    assert [r["name"] for r in read_jsonl(path)] == ["pass"]


def _executions(db, n):
    for _ in range(n):
        db.execute("SELECT COUNT(*) FROM events WHERE user = 3")


def test_executor_samples_first_query_then_every_nth():
    db = make_small_database(rows=1_000)
    telemetry = Telemetry(db.clock, TelemetryConfig(query_sample_every=4))
    db.bind_telemetry(telemetry)
    _executions(db, 9)
    registry = telemetry.registry
    assert registry.read("exec_queries") == 9.0
    # queries 1, 5, 9 are sampled
    assert registry.read("exec_sampled_spans") == 3.0
    spans = telemetry.tracer.roots()
    assert len(spans) == 3
    assert all(span.name == "query" for span in spans)
    assert spans[0].tags["table"] == "events"


def test_probe_executions_are_never_counted():
    db = make_small_database(rows=1_000)
    telemetry = Telemetry(db.clock, TelemetryConfig(query_sample_every=1))
    db.bind_telemetry(telemetry)
    from repro.workload import parse_sql

    query = parse_sql("SELECT COUNT(*) FROM events WHERE user = 3")
    db.executor.execute(query, db.table("events"), probe=True)
    assert telemetry.registry.read("exec_queries") == 0.0
    assert telemetry.tracer.roots() == ()


def test_sampling_zero_disables_query_spans_not_counters():
    db = make_small_database(rows=1_000)
    telemetry = Telemetry(db.clock, TelemetryConfig(query_sample_every=0))
    db.bind_telemetry(telemetry)
    _executions(db, 3)
    assert telemetry.registry.read("exec_queries") == 3.0
    assert telemetry.registry.read("exec_sampled_spans") == 0.0
    assert telemetry.tracer.roots() == ()


def test_unbinding_telemetry_stops_accounting():
    db = make_small_database(rows=1_000)
    telemetry = Telemetry(db.clock, TelemetryConfig(query_sample_every=1))
    db.bind_telemetry(telemetry)
    _executions(db, 1)
    db.bind_telemetry(None)
    _executions(db, 5)
    assert telemetry.registry.read("exec_queries") == 1.0


def test_event_log_api_is_unchanged_without_a_sink(monkeypatch):
    monkeypatch.setattr("repro.core.events.CAPACITY", 2)
    log = EventLog()
    log.log(1.0, EventKind.OBSERVE, "first")
    log.log(2.0, EventKind.SKIP, "second", reason="cooldown")
    log.log(3.0, EventKind.APPLY, "third")
    assert len(log) == 2  # bounded, oldest dropped
    assert log.latest().message == "third"
    assert log.events(EventKind.SKIP)[0].data == {"reason": "cooldown"}


def test_event_log_mirrors_structured_records_into_the_sink(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    log = EventLog(sink=sink)
    event = log.log(5.0, EventKind.TUNING_FINISHED, "tuned", improvement=0.2)
    sink.close()
    assert read_jsonl(path) == [
        {
            "type": "event",
            "tenant": "",
            "at_ms": 5.0,
            "kind": "tuning_finished",
            "message": "tuned",
            "data": {"improvement": 0.2},
        }
    ]
    # the in-memory event is untouched by mirroring
    assert event.data == {"improvement": 0.2}
    assert log.events() == (event,)

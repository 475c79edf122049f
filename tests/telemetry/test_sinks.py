"""Tests for the JSONL export: round trip, pickling, and reopening."""

import pickle

from repro.telemetry import JsonlSink, Telemetry, TelemetryConfig, read_jsonl


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "out" / "telemetry.jsonl"
    sink = JsonlSink(path)
    sink.emit({"type": "span", "name": "pass", "tags": {"n": 1}})
    sink.emit({"type": "event", "message": "tuned"})
    sink.close()
    assert sink.records_written == 2
    records = read_jsonl(path)
    assert records[0] == {"type": "span", "name": "pass", "tags": {"n": 1}}
    assert records[1]["message"] == "tuned"


def test_jsonl_serializes_non_json_values(tmp_path):
    path = tmp_path / "odd.jsonl"
    with JsonlSink(path) as sink:
        sink.emit({"type": "event", "value": complex(1, 2)})
    assert "(1+2j)" in read_jsonl(path)[0]["value"]


def test_a_telemetry_with_a_jsonl_sink_survives_a_pickle(tmp_path):
    """A context carrying an export crosses a process boundary (fleet
    workers, checkpoints): the copy appends after what was written."""
    path = tmp_path / "telemetry.jsonl"
    telemetry = Telemetry(config=TelemetryConfig(jsonl_path=path))
    a = {"type": "event", "message": "a"}
    b = {"type": "event", "message": "b"}
    telemetry.sink.emit(a)
    copy = pickle.loads(pickle.dumps(telemetry))
    copy.sink.emit(b)
    copy.close()
    telemetry.close()
    assert read_jsonl(path) == [a, b]


def test_an_emit_after_close_keeps_the_records_written(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    sink = JsonlSink(path)
    sink.emit({"i": 0})
    sink.close()
    sink.emit({"i": 1})
    sink.close()
    assert read_jsonl(path) == [{"i": 0}, {"i": 1}]

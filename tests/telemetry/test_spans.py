"""Tests for hierarchical spans and the tracer."""

import pytest

from repro.telemetry import (
    JsonlSink,
    Tracer,
    read_jsonl,
    render_span_tree,
)


class FakeClock:
    def __init__(self, now_ms: float = 0.0) -> None:
        self.now_ms = now_ms

    def advance(self, ms: float) -> None:
        self.now_ms += ms


def test_spans_nest_and_time_on_both_clocks():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer") as outer:
        clock.advance(10.0)
        with tracer.span("inner", step=1) as inner:
            clock.advance(5.0)
        assert tracer.current is outer
    assert tracer.current is None

    assert outer.sim_ms == pytest.approx(15.0)
    assert inner.sim_ms == pytest.approx(5.0)
    assert inner.parent is outer
    assert outer.children == [inner]
    assert inner.depth == 1
    assert outer.max_depth == 2
    assert inner.tags == {"step": 1}
    # wall time is real host time: non-negative and ordered
    assert outer.wall_ms >= inner.wall_ms >= 0.0


def test_only_roots_land_in_the_ring():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
    assert [s.name for s in tracer.roots()] == ["root"]
    assert tracer.last_root("child") is None
    assert tracer.last_root("root").find("child") is not None


def test_root_ring_is_bounded():
    tracer = Tracer(max_roots=3)
    for i in range(5):
        with tracer.span(f"r{i}"):
            pass
    assert [s.name for s in tracer.roots()] == ["r2", "r3", "r4"]
    assert tracer.last_root().name == "r4"


def test_exceptions_are_tagged_and_reraised():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    span = tracer.last_root("failing")
    assert not span.is_open
    assert "RuntimeError" in span.tags["error"]


def test_record_creates_a_finished_span():
    clock = FakeClock(100.0)
    tracer = Tracer(clock)
    with tracer.span("parent"):
        child = tracer.record("query", sim_ms=2.5, wall_s=0.001, rows=7)
    assert child.parent is tracer.last_root("parent")
    assert child.sim_ms == pytest.approx(2.5)
    assert child.wall_ms == pytest.approx(1.0)
    assert child.tags["rows"] == 7
    # recording must not disturb the enclosing stack
    assert tracer.current is None


def test_finished_spans_reach_the_sink(tmp_path):
    path = tmp_path / "spans.jsonl"
    sink = JsonlSink(path)
    tracer = Tracer(sink=sink)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    sink.close()
    records = read_jsonl(path)
    # children finish (and emit) before their parent
    assert [r["name"] for r in records] == ["inner", "outer"]
    assert records[1]["parent"] is None


def test_render_span_tree_is_indented():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("pass", trigger="manual"):
        clock.advance(3.0)
        with tracer.span("feature", name="indexes"):
            clock.advance(1.0)
    text = render_span_tree(tracer.last_root())
    lines = text.splitlines()
    assert lines[0].startswith("pass")
    assert lines[1].startswith("  feature")
    assert "trigger=manual" in lines[0]
    assert "sim=4.000 ms" in lines[0]


def test_max_roots_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(max_roots=0)

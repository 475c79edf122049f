"""Tests for the event log and component registry."""

import pytest

from repro.core.component import ComponentRegistry, default_registry
from repro.core.events import Event, EventKind, EventLog
from repro.errors import ReproError
from repro.tuning.selectors import GreedySelector


def test_event_log_append_and_filter():
    log = EventLog()
    log.log(1.0, EventKind.OBSERVE, "saw something")
    log.log(2.0, EventKind.TRIGGER, "fired", drift=0.2)
    assert len(log) == 2
    triggers = log.events(EventKind.TRIGGER)
    assert len(triggers) == 1
    assert triggers[0].data == {"drift": 0.2}
    assert log.latest().kind is EventKind.TRIGGER
    assert log.latest(EventKind.OBSERVE).message == "saw something"


def test_event_log_bounded_capacity(monkeypatch):
    monkeypatch.setattr("repro.core.events.CAPACITY", 3)
    log = EventLog()
    for i in range(5):
        log.log(float(i), EventKind.OBSERVE, f"e{i}")
    assert len(log) == 3
    assert log.events()[0].message == "e2"


def test_event_is_immutable():
    event = Event(1.0, EventKind.OBSERVE, "x")
    with pytest.raises(AttributeError):
        event.message = "y"


def test_registry_register_create_and_list():
    registry = ComponentRegistry()
    registry.register("selector", "mine", GreedySelector)
    selector = registry.create("selector", "mine")
    assert isinstance(selector, GreedySelector)
    assert registry.names("selector") == ("mine",)
    assert registry.kinds() == ("selector",)


def test_registry_duplicate_and_unknown():
    registry = ComponentRegistry()
    registry.register("selector", "x", GreedySelector)
    with pytest.raises(ReproError):
        registry.register("selector", "x", GreedySelector)
    with pytest.raises(ReproError):
        registry.create("selector", "ghost")
    with pytest.raises(ReproError):
        registry.create("unknown-kind", "x")


def test_default_registry_covers_builtins():
    registry = default_registry()
    assert set(registry.names("selector")) == {
        "greedy",
        "optimal",
        "genetic",
        "robust",
    }
    assert "seasonal-naive" in registry.names("forecast_model")
    assert set(registry.names("feature")) == {
        "index_selection",
        "compression",
        "data_placement",
        "buffer_pool",
        "sort_order",
    }
    # created components are functional
    model = registry.create("forecast_model", "seasonal-naive", period=12)
    assert model.period == 12
    robust = registry.create("selector", "robust")
    assert robust.name.startswith("robust")

"""Tests for counters, gauges, intervals, and the metric registry."""

import pytest

from repro.telemetry import Counter, MetricRegistry


def test_counter_get_or_create_and_inc():
    registry = MetricRegistry()
    c = registry.counter("hits")
    assert registry.counter("hits") is c
    c.inc()
    c.inc(2.5)
    assert c.value == pytest.approx(3.5)
    assert registry.read("hits") == pytest.approx(3.5)
    assert registry.read("absent", default=-1.0) == -1.0


def test_counter_rejects_decrease():
    with pytest.raises(ValueError):
        Counter("c").inc(-1.0)


def test_gauge_direct_and_callback_backed():
    registry = MetricRegistry()
    g = registry.gauge("depth")
    g.set(4.0)
    assert g.value == 4.0

    backing = [10.0]
    cb = registry.gauge("size", lambda: backing[0])
    assert cb.value == 10.0
    backing[0] = 12.0
    assert cb.value == 12.0
    with pytest.raises(ValueError):
        cb.set(1.0)


def test_counter_gauge_name_collision_rejected():
    registry = MetricRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    registry.gauge("y")
    with pytest.raises(ValueError):
        registry.counter("y")


def test_interval_deltas():
    registry = MetricRegistry()
    c = registry.counter("work")
    c.inc(5)
    interval = registry.interval()
    c.inc(3)
    # a counter born mid-interval counts from zero
    registry.counter("late").inc(2)
    assert interval.deltas() == {"work": 3.0, "late": 2.0}
    c.inc(1)
    assert interval.deltas()["work"] == 4.0


def test_snapshots_and_contains():
    registry = MetricRegistry()
    registry.counter("a").inc(2)
    registry.gauge("b").set(3.0)
    assert "a" in registry and "b" in registry and "c" not in registry
    assert registry.snapshot_counters() == {"a": 2.0}
    assert registry.snapshot_gauges() == {"b": 3.0}
    assert registry.snapshot() == {"a": 2.0, "b": 3.0}


def test_counter_and_registry_pickle_without_help():
    """A counter is two slots and a registry two dicts: the default
    pickle carries them, shared objects staying shared."""
    import pickle

    hooks = {"__getstate__", "__setstate__", "__reduce__"}
    assert not hooks & vars(Counter).keys()
    counter = pickle.loads(pickle.dumps(Counter("c", 5.0)))
    assert (counter.name, counter.value) == ("c", 5.0)
    assert counter.inc(2) == 7.0

    registry = MetricRegistry()
    held = registry.counter("a")
    held.inc(3)
    registry.gauge("g").set(4.0)
    clone_held, clone = pickle.loads(pickle.dumps((held, registry)))
    assert clone.snapshot() == {"a": 3.0, "g": 4.0}
    clone_held.inc()  # a component's direct reference is still the entry
    assert clone.read("a") == 4.0 and registry.read("a") == 3.0

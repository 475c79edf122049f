"""Tests for knob definitions and the registry."""

import pytest

from repro.dbms.knobs import (
    BUFFER_POOL_KNOB,
    SCAN_THREADS_KNOB,
    Knob,
    KnobRegistry,
    standard_knobs,
)
from repro.errors import KnobError


def test_knob_domain_validation():
    knob = Knob("k", lower=0, upper=10, step=2, default=4)
    assert knob.is_valid(6)
    assert not knob.is_valid(5)
    assert not knob.is_valid(12)
    assert knob.domain_values() == [0, 2, 4, 6, 8, 10]


def test_invalid_knob_definitions_rejected():
    with pytest.raises(KnobError):
        Knob("k", lower=10, upper=0, step=1, default=5)
    with pytest.raises(KnobError):
        Knob("k", lower=0, upper=10, step=0, default=5)
    with pytest.raises(KnobError):
        Knob("k", lower=0, upper=10, step=2, default=5)


def test_registry_set_get_and_snapshot():
    registry = KnobRegistry([Knob("k", 0, 10, 1, 3)])
    assert registry.get("k") == 3
    previous = registry.set("k", 7)
    assert previous == 3
    snapshot = registry.snapshot()
    registry.set("k", 2)
    assert registry.get("k") == 2
    assert snapshot == {"k": 7}


def test_registry_rejects_out_of_domain():
    registry = KnobRegistry([Knob("k", 0, 10, 2, 4)])
    with pytest.raises(KnobError):
        registry.set("k", 5)


def test_registry_rejects_unknown_and_duplicate():
    registry = KnobRegistry([Knob("k", 0, 10, 1, 3)])
    with pytest.raises(KnobError):
        registry.get("unknown")
    with pytest.raises(KnobError):
        registry.define(Knob("k", 0, 1, 1, 0))


def test_standard_knobs_exist():
    registry = KnobRegistry(standard_knobs())
    assert BUFFER_POOL_KNOB in registry.names()
    assert SCAN_THREADS_KNOB in registry.names()
    assert registry.get(SCAN_THREADS_KNOB) == 1

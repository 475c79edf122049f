"""Tests for constraints (incl. hardware-over-DBMS conflict resolution)
and the configuration instance storage."""

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import (
    DRAM_BYTES,
    INDEX_MEMORY,
    ConstraintScope,
    ConstraintSet,
    ResourceBudget,
    SlaConstraint,
)
from repro.configuration.store import (
    ConfigurationInstanceStorage,
    ConfigurationRecord,
)
from repro.dbms.hardware import HardwareProfile
from repro.errors import ConfigurationError, ConstraintError

from tests.conftest import make_small_database


def test_dbms_budget_applies_when_no_hardware():
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 100.0)])
    assert constraints.effective_budget(INDEX_MEMORY) == 100.0
    assert constraints.effective_budget("other") is None


def test_hardware_overrides_dbms_budget():
    constraints = ConstraintSet(
        [
            ResourceBudget(DRAM_BYTES, 500.0, ConstraintScope.DBMS),
            ResourceBudget(DRAM_BYTES, 200.0, ConstraintScope.HARDWARE),
        ]
    )
    # "available hardware resources overwrite externally specified ones"
    assert constraints.effective_budget(DRAM_BYTES) == 200.0


def test_check_usage_reports_violations():
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 100.0)])
    assert constraints.check_usage({INDEX_MEMORY: 50.0}) == []
    violations = constraints.check_usage({INDEX_MEMORY: 150.0})
    assert len(violations) == 1
    assert INDEX_MEMORY in violations[0]


def test_with_hardware_adds_physical_limits():
    hardware = HardwareProfile(dram_capacity_bytes=1_000)
    constraints = ConstraintSet().with_hardware(hardware)
    assert constraints.effective_budget(DRAM_BYTES) == 1_000.0


def test_with_hardware_keeps_explicit_hardware_budgets():
    hardware = HardwareProfile(dram_capacity_bytes=1_000)
    constraints = ConstraintSet(
        [ResourceBudget(DRAM_BYTES, 400.0, ConstraintScope.HARDWARE)]
    ).with_hardware(hardware)
    assert constraints.effective_budget(DRAM_BYTES) == 400.0


def test_budget_validation():
    with pytest.raises(ConstraintError):
        ResourceBudget("x", -1.0)
    with pytest.raises(ConstraintError):
        SlaConstraint("m", 1.0, patience=0)


def test_sla_accessors():
    constraints = ConstraintSet(slas=[SlaConstraint("mean_query_ms", 5.0)])
    constraints.add_sla(SlaConstraint("cpu", 0.9, patience=3))
    assert len(constraints.slas) == 2


# ----------------------------------------------------------------------
# instance storage


def _record(db, predicted=None, measured=None, feature=None):
    return ConfigurationRecord(
        instance=ConfigurationInstance.capture(db),
        applied_at_ms=db.clock.now_ms,
        trigger="test",
        feature=feature,
        predicted_benefit_ms=predicted,
        measured_benefit_ms=measured,
    )


def test_store_append_and_history():
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage()
    record_id = store.append(_record(db))
    assert record_id == 0
    assert len(store) == 1
    assert store.latest() is store.history()[0]


def test_store_capacity_eviction():
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage(capacity=2)
    for _ in range(3):
        store.append(_record(db))
    assert len(store) == 2


def test_store_ids_are_monotone_and_survive_eviction():
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage(capacity=2)
    ids = [store.append(_record(db, predicted=float(i))) for i in range(3)]
    assert ids == [0, 1, 2]
    # an id keeps naming its record after older ones were evicted ...
    store.record_measurement(2, 7.0)
    assert store.latest().measured_benefit_ms == 7.0
    store.record_measurement(1, 5.0)
    assert store.history()[0].measured_benefit_ms == 5.0
    # ... and an evicted id names nothing
    with pytest.raises(ConfigurationError):
        store.record_measurement(0, 1.0)


def test_store_measurement_and_feedback():
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage()
    record_id = store.append(_record(db, predicted=10.0, feature="index"))
    store.record_measurement(record_id, 8.0)
    assert store.feedback("index") == [(10.0, 8.0)]
    assert store.feedback("other") == []
    assert store.feedback() == [(10.0, 8.0)]
    record = store.history()[0]
    assert record.prediction_error == pytest.approx((10.0 - 8.0) / 8.0)


def test_store_measurement_unknown_id():
    store = ConfigurationInstanceStorage()
    with pytest.raises(ConfigurationError):
        store.record_measurement(5, 1.0)


def test_prediction_error_requires_both_values():
    db = make_small_database(rows=200)
    record = _record(db, predicted=10.0)
    assert record.prediction_error is None


def test_store_invalid_capacity():
    with pytest.raises(ConfigurationError):
        ConfigurationInstanceStorage(capacity=0)

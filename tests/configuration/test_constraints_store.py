"""Tests for constraints (incl. hardware-over-DBMS conflict resolution)
and the configuration instance storage."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configuration.actions import SetKnobAction
from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import (
    DRAM_BYTES,
    INDEX_MEMORY,
    ConstraintScope,
    ConstraintSet,
    ResourceBudget,
    SlaConstraint,
)
from repro.configuration import store as store_module
from repro.configuration.store import (
    CommitResolution,
    ConfigurationInstanceStorage,
    ConfigurationRecord,
    FeatureOutcome,
)
from repro.dbms.hardware import HardwareProfile
from repro.dbms.knobs import SCAN_THREADS_KNOB
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
    slas = [SlaConstraint("mean_query_ms", 5.0), SlaConstraint("cpu", 0.9, patience=3)]
    constraints = ConstraintSet(slas=slas)
    assert constraints.slas == tuple(slas)


# ----------------------------------------------------------------------
# instance storage


def _record(db, predicted=0.0, measured=0.0, outcomes=()):
    return ConfigurationRecord(
        instance=ConfigurationInstance.capture(db),
        applied_at_ms=db.clock.now_ms,
        trigger="test",
        predicted_benefit_ms=predicted,
        measured_benefit_ms=measured,
        reconfiguration_cost_ms=0.0,
        outcomes=outcomes,
    )


def test_store_append_and_history():
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage()
    record_id = store.append(_record(db))
    assert record_id == 0
    assert len(store) == 1
    assert store.latest() is store.history()[0]


def test_store_capacity_eviction(monkeypatch):
    monkeypatch.setattr("repro.configuration.store.CAPACITY", 2)
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage()
    for _ in range(3):
        store.append(_record(db))
    assert len(store) == 2


def test_store_ids_are_monotone_and_survive_eviction(monkeypatch):
    monkeypatch.setattr("repro.configuration.store.CAPACITY", 2)
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage()
    ids = [store.append(_record(db, predicted=float(i))) for i in range(3)]
    # an id counts appends, not positions: eviction never reuses one
    assert ids == [0, 1, 2]
    assert [r.predicted_benefit_ms for r in store.history()] == [1.0, 2.0]


def test_store_measurement_and_feedback():
    db = make_small_database(rows=200)
    store = ConfigurationInstanceStorage()
    store.append(
        _record(
            db,
            predicted=10.0,
            measured=8.0,
            outcomes=(
                FeatureOutcome("index", ("create",), 7.0, 6.0, 1.0),
                FeatureOutcome("compression", ("encode",), 3.0, 2.0, 1.0),
            ),
        )
    )
    assert store.feedback("index") == [(7.0, 6.0)]
    assert store.feedback("other") == []
    # no feature named: the pass's totals, then its outcomes
    assert store.feedback() == [(10.0, 8.0), (7.0, 6.0), (3.0, 2.0)]


# ----------------------------------------------------------------------
# probation: one at a time, sound supersession


_INVERSE = tuple(SetKnobAction(SCAN_THREADS_KNOB, i + 1) for i in range(2))


def _bare_record(now_ms):
    return ConfigurationRecord(None, now_ms, "test", 0.0, 0.0, 0.0)


def _open(store, now_ms=1_000.0):
    """Append a record and put it on probation, as a committed pass does.
    Returns (record, superseded record, record id)."""
    record = _bare_record(now_ms)
    record_id = store.append(record)
    superseded = store.open_probation(
        record,
        inverse_actions=_INVERSE,
        baseline_ms=5.0,
        baseline_sample_count=4,
    )
    return record, superseded, record_id


def test_open_and_resolve_lifecycle():
    store = ConfigurationInstanceStorage()
    commit, superseded, _ = _open(store)
    assert superseded is None
    assert store.active is commit
    assert commit.resolution is None
    assert commit.commit_id == 1
    assert len(store) == 1

    resolved = store.resolve(CommitResolution.PASSED, 2_000.0, 4.5)
    assert resolved is commit
    assert commit.resolved_at_ms == 2_000.0
    assert commit.observed_ms == 4.5
    assert store.active is None
    assert store.history() == (commit,)


def test_resolve_without_active_commit_raises():
    with pytest.raises(ConfigurationError):
        ConfigurationInstanceStorage().resolve(CommitResolution.PASSED, 0.0)


def test_rollback_material_kept_only_for_rolled_back():
    store = ConfigurationInstanceStorage()
    commit, *_ = _open(store)
    store.resolve(CommitResolution.PASSED, 2_000.0)
    assert commit.inverse_actions == ()

    commit, *_ = _open(store)
    store.resolve(CommitResolution.ROLLED_BACK, 3_000.0)
    assert len(commit.inverse_actions) == 2


def test_newer_commit_supersedes_the_active_one():
    store = ConfigurationInstanceStorage()
    first, *_ = _open(store, now_ms=1_000.0)
    second, superseded, _ = _open(store, now_ms=2_000.0)
    assert superseded is first
    assert first.resolution is CommitResolution.SUPERSEDED
    assert first.resolved_at_ms == 2_000.0
    assert first.observed_ms is None
    # stale inverse actions must not survive: they only compose with the
    # configuration state they were recorded against
    assert first.inverse_actions == ()
    assert store.active is second
    assert second.commit_id == 2


def test_history_is_bounded(monkeypatch):
    """One bound, the store's capacity; commit ids stay valid across
    eviction because they count opened probations, not positions."""
    monkeypatch.setattr("repro.configuration.store.CAPACITY", 3)
    store = ConfigurationInstanceStorage()
    for i in range(5):
        _open(store, now_ms=float(i))
        store.resolve(CommitResolution.PASSED, float(i))
    assert len(store) == 3
    assert [c.commit_id for c in store.history()] == [3, 4, 5]


def test_guard_cli_lists_the_active_commit_last(capsys):
    """The ``guard`` subcommand's ledger view: every commit oldest first,
    the one still on probation last, each with its observed mean."""
    from repro.__main__ import _print_commit_ledger

    store = ConfigurationInstanceStorage()
    _open(store, now_ms=60_000.0)
    store.resolve(CommitResolution.ROLLED_BACK, 120_000.0, 9.25)
    store.append(_bare_record(180_000.0))  # applied nothing reversible
    _open(store, now_ms=240_000.0)
    _print_commit_ledger(store)
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(lines) == 2
    assert "commit #1" in lines[0] and "rolled_back" in lines[0]
    assert "2 inverse actions retained" in lines[0]
    assert "baseline 5.000 -> observed 9.250 ms" in lines[0]
    assert "commit #2" in lines[1] and "on_probation" in lines[1]
    assert "observed - ms" in lines[1]


_STORE_OPS = st.lists(
    st.sampled_from(["append", "open", "pass", "roll_back"]), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(min_value=2, max_value=4), ops=_STORE_OPS)
def test_probation_invariants_hold_over_any_sequence(capacity, ops):
    with patch.object(store_module, "CAPACITY", capacity):
        _run_store_ops(ops, capacity)


def _run_store_ops(ops, capacity):
    store = ConfigurationInstanceStorage()
    ids = []
    opened = []
    for step, op in enumerate(ops):
        active_before = store.active
        if op == "append":
            ids.append(store.append(_bare_record(float(step))))
        elif op == "open":
            record, superseded, record_id = _open(store, now_ms=float(step))
            ids.append(record_id)
            opened.append(record)
            assert superseded is active_before
        elif store.active is not None:
            resolution = (
                CommitResolution.PASSED
                if op == "pass"
                else CommitResolution.ROLLED_BACK
            )
            assert store.resolve(resolution, float(step)) is active_before
        history = store.history()
        assert len(history) <= capacity
        # at most one record is on probation, and it is never evicted
        on_probation = [
            r for r in opened if r.commit_id and r.resolution is None
        ]
        assert on_probation == ([store.active] if store.active else [])
        if store.active is not None:
            assert any(r is store.active for r in history)
        # the record just appended is never the one evicted either
        if op in ("append", "open"):
            assert history[-1] is store.latest()
            assert history[-1].applied_at_ms == float(step)
        # rollback material outlives probation only when rolled back
        for record in opened:
            if record.inverse_actions != ():
                assert record.resolution in (
                    None,
                    CommitResolution.ROLLED_BACK,
                )
    # commit ids count opened probations from 1, in open order ...
    assert [r.commit_id for r in opened] == list(range(1, len(opened) + 1))
    # ... and record ids count appends from 0, whatever was evicted
    assert ids == list(range(len(ids)))
    assert store.append(_bare_record(-1.0)) == len(ids)

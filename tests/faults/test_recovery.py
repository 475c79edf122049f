"""Recovery invariants: retry/backoff semantics and bit-identical rollback."""

import pytest

from repro.configuration.actions import CreateIndexAction, SetKnobAction
from repro.configuration.config import ConfigurationInstance
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.errors import KnobError, TuningAbortedError
from repro.faults import recovery
from repro.tuning.executors import SequentialExecutor

from tests.conftest import ScriptedInjector


# ----------------------------------------------------------------------
# backoff


def test_backoff_grows_exponentially_and_caps():
    assert recovery.MAX_BACKOFF_MS == 1_000.0
    delays = [recovery.backoff_ms(attempt) for attempt in range(7)]
    assert delays == [50.0, 100.0, 200.0, 400.0, 800.0, 1_000.0, 1_000.0]


def test_backoff_rejects_negative_attempt():
    with pytest.raises(ValueError):
        recovery.backoff_ms(-1)


# ----------------------------------------------------------------------
# retry semantics: backoff advances only the simulated clock, never work


def test_transient_failures_retry_then_succeed(retail_suite):
    db = retail_suite.database
    executor = SequentialExecutor(
        injector=ScriptedInjector(["transient", "transient", "ok"]),
    )
    delta = ConfigurationDelta([CreateIndexAction("orders", ("customer",))])
    clock_before = db.clock.now_ms
    work_before = db.counters.total_reconfiguration_ms
    report = executor.execute(delta, db)
    assert report.retries == 2
    assert report.backoff_ms == pytest.approx(50.0 + 100.0)
    assert not report.rolled_back
    assert db.table("orders").chunks()[0].has_index(["customer"])
    # the clock saw the work plus the waits ...
    assert db.clock.now_ms - clock_before == pytest.approx(
        report.total_work_ms + 150.0
    )
    assert report.elapsed_ms == pytest.approx(report.total_work_ms + 150.0)
    # ... but the work counters exclude the waits
    assert db.counters.total_reconfiguration_ms - work_before == pytest.approx(
        report.total_work_ms
    )


def test_transient_exhaustion_becomes_abort(retail_suite):
    db = retail_suite.database
    executor = SequentialExecutor(injector=ScriptedInjector(["transient"] * 10))
    delta = ConfigurationDelta([CreateIndexAction("orders", ("customer",))])
    with pytest.raises(TuningAbortedError) as excinfo:
        executor.execute(delta, db)
    report = excinfo.value.report
    assert report.retries == recovery.MAX_RETRIES == 3
    assert report.backoff_ms == 50.0 + 100.0 + 200.0
    assert report.rolled_back
    assert excinfo.value.cause.transient


# ----------------------------------------------------------------------
# rollback: bit-identical configuration and footprint


def test_permanent_failure_rolls_back_bit_identically(retail_suite):
    db = retail_suite.database
    executor = SequentialExecutor(
        injector=ScriptedInjector(["ok", "permanent"])
    )
    delta = ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            CreateIndexAction("orders", ("order_date",)),
            SetKnobAction(SCAN_THREADS_KNOB, 4),
        ]
    )
    before = ConfigurationInstance.capture(db)
    footprint_before = db.table("orders").footprint(("customer", "order_date"))
    with pytest.raises(TuningAbortedError) as excinfo:
        executor.execute(delta, db)
    assert ConfigurationInstance.capture(db) == before
    assert db.table("orders").footprint(("customer", "order_date")) == footprint_before
    assert db.index_bytes() == 0
    report = excinfo.value.report
    assert report.rolled_back
    assert report.rollback_actions == 1  # the applied first index
    assert "order_date" in report.failed_action
    assert report.finished_ms >= report.started_ms
    assert report.elapsed_ms == report.finished_ms - report.started_ms
    # the successfully applied prefix is what the report accounts
    assert report.action_summaries == [delta.actions[0].describe()]


def test_rollback_work_is_accounted(retail_suite):
    db = retail_suite.database
    executor = SequentialExecutor(injector=ScriptedInjector(["ok", "permanent"]))
    delta = ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            CreateIndexAction("orders", ("order_date",)),
        ]
    )
    clock_before = db.clock.now_ms
    recon_before = db.counters.reconfigurations
    with pytest.raises(TuningAbortedError) as excinfo:
        executor.execute(delta, db)
    report = excinfo.value.report
    # forward work of action 1 plus the inverse drop, both on the clock
    assert db.clock.now_ms - clock_before == pytest.approx(
        report.total_work_ms + report.rollback_work_ms
    )
    # one forward application + one rollback application
    assert db.counters.reconfigurations - recon_before == 2


def test_non_action_errors_propagate_after_rollback(retail_suite):
    db = retail_suite.database
    executor = SequentialExecutor()
    delta = ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            SetKnobAction("no_such_knob", 1.0),
        ]
    )
    before = ConfigurationInstance.capture(db)
    with pytest.raises(KnobError):
        executor.execute(delta, db)
    # a genuine bug still leaves the database consistent
    assert ConfigurationInstance.capture(db) == before
    assert db.index_bytes() == 0


# ----------------------------------------------------------------------
# delta / what-if exception safety (satellite fixes)


def test_delta_apply_raw_is_exception_safe(retail_suite):
    db = retail_suite.database
    before = ConfigurationInstance.capture(db)
    delta = ConfigurationDelta(
        [
            SetKnobAction(SCAN_THREADS_KNOB, 4),
            CreateIndexAction("orders", ("customer",)),
            SetKnobAction("no_such_knob", 1.0),
        ]
    )
    with pytest.raises(KnobError):
        delta.apply_raw(db)
    assert ConfigurationInstance.capture(db) == before
    assert db.index_bytes() == 0


def test_hypothetical_with_failing_delta_restores_epoch(retail_suite):
    db = retail_suite.database
    optimizer = WhatIfOptimizer(db)
    footprint_before = db.table("orders").footprint(("customer", "order_date"))
    before = ConfigurationInstance.capture(db)
    bad = ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            SetKnobAction("no_such_knob", 1.0),
        ]
    )
    with pytest.raises(KnobError):
        with optimizer.hypothetical(bad):
            pass  # pragma: no cover - apply_raw raises before the yield
    assert ConfigurationInstance.capture(db) == before
    assert db.table("orders").footprint(("customer", "order_date")) == footprint_before

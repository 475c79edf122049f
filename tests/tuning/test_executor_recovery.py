"""Mid-batch exception safety of the parallel executor (and telemetry)."""

import pytest

from repro.configuration.actions import CreateIndexAction, SetKnobAction
from repro.configuration.config import ConfigurationInstance
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.errors import ActionError, KnobError, TuningAbortedError
from repro.faults import recovery
from repro.kpi.metrics import (
    ACTION_FAILURES,
    ACTION_RETRIES,
    ROLLBACK_ACTIONS,
    ROLLBACKS,
)
from repro.telemetry import Telemetry
from repro.tuning.executors import ParallelExecutor, SequentialExecutor

from tests.conftest import ScriptedInjector


def _delta():
    return ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            CreateIndexAction("orders", ("order_date",)),
            SetKnobAction(SCAN_THREADS_KNOB, 4),
        ]
    )


def test_parallel_failure_after_full_batch_rolls_all_back(retail_suite):
    db = retail_suite.database
    executor = ParallelExecutor(
        worker_count=2, injector=ScriptedInjector(["ok", "ok", "permanent"])
    )
    before = ConfigurationInstance.capture(db)
    footprint_before = db.table("orders").footprint(("customer", "order_date"))
    with pytest.raises(TuningAbortedError) as excinfo:
        executor.execute(_delta(), db)
    assert ConfigurationInstance.capture(db) == before
    assert db.table("orders").footprint(("customer", "order_date")) == footprint_before
    report = excinfo.value.report
    assert report.rolled_back
    assert report.rollback_actions == 2  # the whole first batch
    assert report.action_count == 2  # first batch was accounted
    assert report.finished_ms >= report.started_ms
    assert report.elapsed_ms > 0.0


def test_parallel_mid_batch_failure_accounts_applied_prefix(retail_suite):
    """The original bug: a raise mid-batch left the DB mutated with no
    clock advance, no counters, and finished_ms == 0."""
    db = retail_suite.database
    executor = ParallelExecutor(
        worker_count=2, injector=ScriptedInjector(["ok", "permanent"])
    )
    before = ConfigurationInstance.capture(db)
    clock_before = db.clock.now_ms
    recon_before = db.counters.reconfigurations
    with pytest.raises(TuningAbortedError) as excinfo:
        executor.execute(_delta(), db)
    report = excinfo.value.report
    # the DB is rolled back, not left half-mutated
    assert ConfigurationInstance.capture(db) == before
    assert db.index_bytes() == 0
    # the applied prefix (one action) was accounted before the rollback
    assert report.action_count == 1
    assert report.action_summaries == [_delta().actions[0].describe()]
    assert db.counters.reconfigurations - recon_before == 1 + 1  # fwd + undo
    # the clock saw the prefix work plus the rollback work
    assert db.clock.now_ms - clock_before == pytest.approx(
        report.total_work_ms + report.rollback_work_ms
    )
    # the report is finalised, not abandoned with finished_ms == 0
    assert report.finished_ms == db.clock.now_ms
    assert report.elapsed_ms == pytest.approx(
        report.finished_ms - report.started_ms
    )
    assert "order_date" in report.failed_action


def test_parallel_non_action_error_restores_state(retail_suite):
    db = retail_suite.database
    executor = ParallelExecutor(worker_count=2)
    delta = ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            SetKnobAction("no_such_knob", 1.0),
        ]
    )
    before = ConfigurationInstance.capture(db)
    with pytest.raises(KnobError):
        executor.execute(delta, db)
    assert ConfigurationInstance.capture(db) == before


def test_parallel_transient_retry_keeps_batch_semantics(retail_suite):
    db = retail_suite.database
    executor = ParallelExecutor(
        worker_count=2,
        injector=ScriptedInjector(["transient", "ok", "ok", "ok"]),
    )
    clock_before = db.clock.now_ms
    report = executor.execute(_delta(), db)
    assert report.retries == 1
    assert report.backoff_ms == recovery.BASE_BACKOFF_MS
    costs = report.action_costs_ms
    expected_elapsed = (
        recovery.BASE_BACKOFF_MS + max(costs[0], costs[1]) + costs[2]
    )
    assert db.clock.now_ms - clock_before == pytest.approx(expected_elapsed)
    assert report.elapsed_ms == pytest.approx(expected_elapsed)


def test_executor_counters_flow_through_telemetry(retail_suite):
    db = retail_suite.database
    telemetry = Telemetry(db.clock)
    executor = SequentialExecutor(
        injector=ScriptedInjector(["ok", "transient", "permanent"]),
        telemetry=telemetry,
    )
    with pytest.raises(TuningAbortedError):
        executor.execute(_delta(), db)
    snap = telemetry.registry.snapshot()
    assert snap[ACTION_RETRIES] == 1
    assert snap[ACTION_FAILURES] == 2  # the transient and the permanent
    assert snap[ROLLBACKS] == 1
    assert snap[ROLLBACK_ACTIONS] == 1
    # the rollback span landed in the trace tree
    assert telemetry.tracer.last_root("rollback") is not None


def test_injected_error_carries_fault_metadata():
    exc = ActionError("boom", action="CREATE INDEX", transient=True)
    assert exc.transient
    assert exc.action == "CREATE INDEX"

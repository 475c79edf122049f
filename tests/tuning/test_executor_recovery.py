"""Exception safety and accounting of the tuning executor (and telemetry)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configuration.actions import (
    CreateIndexAction,
    DropIndexAction,
    MoveChunkAction,
    SetEncodingAction,
    SetKnobAction,
    SortChunkAction,
)
from repro.configuration.config import ConfigurationInstance
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.errors import ActionError, TuningAbortedError
from repro.kpi.metrics import (
    ACTION_FAILURES,
    ACTION_RETRIES,
    ROLLBACK_ACTIONS,
    ROLLBACKS,
)
from repro.telemetry import Telemetry
from repro.tuning.executors import SequentialExecutor

from tests.conftest import ScriptedInjector, make_small_database


def _delta():
    return ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            CreateIndexAction("orders", ("order_date",)),
            SetKnobAction(SCAN_THREADS_KNOB, 4),
        ]
    )


# ----------------------------------------------------------------------
# the accounting and rollback property

_CHUNKS = st.sampled_from([None, (0,), (1,)])
_ACTIONS = st.one_of(
    st.builds(
        CreateIndexAction,
        st.just("events"),
        st.sampled_from([("user",), ("id",), ("user", "kind")]),
        _CHUNKS,
    ),
    st.builds(
        DropIndexAction, st.just("events"), st.sampled_from([("kind",)]), _CHUNKS
    ),
    st.builds(
        lambda slot, chunks: SetEncodingAction("events", *slot, chunks),
        st.sampled_from(
            [
                ("user", EncodingType.DICTIONARY),
                ("id", EncodingType.FRAME_OF_REFERENCE),
                ("kind", EncodingType.RUN_LENGTH),
                ("value", EncodingType.DICTIONARY),
            ]
        ),
        _CHUNKS,
    ),
    st.builds(
        MoveChunkAction,
        st.just("events"),
        st.sampled_from([0, 1]),
        st.sampled_from(list(StorageTier)),
    ),
    st.builds(
        SortChunkAction, st.just("events"), st.sampled_from(["user", "value"]), _CHUNKS
    ),
    st.builds(
        SetKnobAction, st.just(SCAN_THREADS_KNOB), st.sampled_from([1, 4, 8])
    ),
)
_SCRIPTS = st.lists(st.sampled_from(["ok", "transient", "permanent"]), max_size=10)
#: every predicate-column tuple a generated action can change the
#: footprint of
_FOOTPRINTS = (
    ("id",),
    ("user",),
    ("kind",),
    ("value",),
    ("user", "kind"),
)


def _footprints(db):
    """Every footprint a generated delta can touch."""
    table = db.table("events")
    return {columns: table.footprint(columns) for columns in _FOOTPRINTS}


@settings(max_examples=60, deadline=None)
@given(actions=st.lists(_ACTIONS, max_size=6), script=_SCRIPTS)
def test_any_pass_is_accounted_and_a_failed_one_restores_the_instance(
    actions, script
):
    db = make_small_database(rows=600, chunk_size=300)
    db.create_index("events", ["kind"])  # something for a drop to remove
    delta = ConfigurationDelta(actions)
    before = ConfigurationInstance.capture(db)
    footprints_before = _footprints(db)
    clock_before = db.clock.now_ms
    reconfigurations_before = db.counters.reconfigurations
    work_before = db.counters.total_reconfiguration_ms

    executor = SequentialExecutor(injector=ScriptedInjector(script))
    try:
        report = executor.execute(delta, db)
    except TuningAbortedError as exc:
        report = exc.report
        # (a) a permanent failure leaves the configuration and every
        # footprint it touched as they were before the pass
        assert report.rolled_back
        assert ConfigurationInstance.capture(db) == before
        assert _footprints(db) == footprints_before
        assert report.inverse_actions == []
    else:
        assert not report.rolled_back
        assert report.action_count == len(delta.actions)
        assert report.action_summaries == delta.describe()

    # (b) each applied action counts once, forward and inverse alike
    assert (
        db.counters.reconfigurations - reconfigurations_before
        == report.action_count + report.rollback_actions
    )
    # (c) work is forward plus rollback work; the clock also waits out
    # the backoff, and the report's elapsed time is the clock's
    work = report.total_work_ms + report.rollback_work_ms
    assert db.counters.total_reconfiguration_ms - work_before == pytest.approx(work)
    assert db.clock.now_ms - clock_before == pytest.approx(work + report.backoff_ms)
    assert report.elapsed_ms == pytest.approx(work + report.backoff_ms)
    assert report.finished_ms == db.clock.now_ms

    # (d) a clean pass hands over inverse actions that, applied raw in
    # reverse, restore the pre-pass instance
    if not report.rolled_back:
        for inverse in reversed(report.inverse_actions):
            inverse.apply_raw(db)
        assert ConfigurationInstance.capture(db) == before
        assert _footprints(db) == footprints_before


# ----------------------------------------------------------------------
# telemetry and fault metadata


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

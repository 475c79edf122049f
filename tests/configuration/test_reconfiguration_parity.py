"""One reconfiguration path: the accounted facade and the tuning executor
price, apply and account every change identically.

``delta.apply(db)`` (what the ``Database`` primitives call) and
``SequentialExecutor().execute(delta, db)`` are both ``estimate_cost_ms ->
apply_raw -> _record_reconfiguration``; on twin databases they must leave
the same configuration, clock, counters and footprints, and the estimate taken
beforehand must equal the charged cost exactly.
"""

import pytest

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
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.tuning.executors.sequential import SequentialExecutor

from tests.conftest import make_small_database


def _indexed(db):
    db.create_index("events", ["user"])


def _half_indexed(db):
    db.create_index("events", ["user"], chunk_ids=[0, 2])


def _sorted_and_indexed(db):
    db.create_index("events", ["user"])
    db.sort_chunk("events", 1, "user")


def _warm_pool(db):
    db.move_chunk("events", 0, StorageTier.SSD)
    db.execute("SELECT COUNT(*) FROM events")


def _nothing(db):
    pass


#: id -> (rows, chunk_size, setup applied to both twins, actions)
CASES = {
    "create_index": (5_000, 1_000, _nothing, [CreateIndexAction("events", ("user",))]),
    "create_index_where_missing": (
        4_000, 1_000, _half_indexed, [CreateIndexAction("events", ("user",))],
    ),
    "drop_index_all_chunks": (
        4_000, 1_000, _indexed, [DropIndexAction("events", ("user",))],
    ),
    "drop_index_listed_chunks": (
        4_000, 1_000, _half_indexed,
        [DropIndexAction("events", ("user",), (0, 1, 2))],
    ),
    "set_encoding_rebuilds_index": (
        4_000, 1_000, _indexed,
        [SetEncodingAction("events", "user", EncodingType.DICTIONARY, (1, 3))],
    ),
    "move_chunk": (
        2_000, 1_000, _warm_pool, [MoveChunkAction("events", 1, StorageTier.NVM)],
    ),
    "sort_multi_chunk": (2_000, 1_000, _nothing, [SortChunkAction("events", "user")]),
    "sort_partly_sorted": (
        4_000, 1_000, _sorted_and_indexed, [SortChunkAction("events", "user")],
    ),
    "set_knob": (1_000, 1_000, _nothing, [SetKnobAction(SCAN_THREADS_KNOB, 8)]),
    "shrink_buffer_pool": (
        2_000, 1_000, _warm_pool, [SetKnobAction(BUFFER_POOL_KNOB, 0.0)],
    ),
    "noop_knob": (1_000, 1_000, _nothing, [SetKnobAction(SCAN_THREADS_KNOB, 1.0)]),
    "noop_everything_else": (
        2_000, 1_000, _sorted_and_indexed,
        [
            CreateIndexAction("events", ("user",)),
            DropIndexAction("events", ("value",)),
            SetEncodingAction("events", "kind", EncodingType.UNENCODED),
            MoveChunkAction("events", 0, StorageTier.DRAM),
            SortChunkAction("events", "user", (1,)),
        ],
    ),
    "mixed_delta": (
        4_000, 1_000, _half_indexed,
        [
            DropIndexAction("events", ("user",), (0, 2)),
            SortChunkAction("events", "value", (0, 1)),
            SetEncodingAction("events", "kind", EncodingType.DICTIONARY),
            CreateIndexAction("events", ("value", "user"), (1, 3)),
            MoveChunkAction("events", 3, StorageTier.SSD),
            SetKnobAction(SCAN_THREADS_KNOB, 4),
        ],
    ),
}


def _state(db):
    return (
        ConfigurationInstance.capture(db),
        db.clock.now_ms,
        db.counters.snapshot(),
        # what the plan and cost caches key on, minus the table object
        db.table("events").footprint(("id", "user", "kind", "value")).chunks,
    )


@pytest.mark.parametrize("case", CASES)
def test_accounted_apply_and_executor_agree(case):
    rows, chunk_size, setup, actions = CASES[case]
    twins = []
    for _ in range(2):
        db = make_small_database(rows=rows, chunk_size=chunk_size)
        setup(db)
        twins.append(db)
    facade_db, executor_db = twins
    before = _state(facade_db)
    assert before == _state(executor_db)
    delta = ConfigurationDelta(actions)
    estimate = delta.estimate_cost_ms(facade_db)

    facade_cost = delta.apply(facade_db)
    report = SequentialExecutor().execute(delta, executor_db)

    after = _state(facade_db)
    assert after == _state(executor_db)
    assert report.total_work_ms == facade_cost
    if len(actions) == 1:
        # later actions of a longer delta are priced against the state
        # the earlier ones left, so only a one-action estimate is exact
        assert estimate == facade_cost
    # one reconfiguration per action, however many chunks it spans
    assert (
        after[2]["reconfigurations"]
        == before[2]["reconfigurations"] + len(actions)
    )
    if case.startswith("noop"):
        assert after[0] == before[0]
        assert after[3] == before[3]


def test_noop_accounted_call_advances_clock_and_count_but_no_epoch():
    db = make_small_database(rows=1_000, chunk_size=1_000)
    db.execute("SELECT COUNT(*) FROM events WHERE user = 3")
    hits = db.planner.cache_stats.hits
    now = db.clock.now_ms
    cost = db.set_knob(SCAN_THREADS_KNOB, db.knobs.get(SCAN_THREADS_KNOB))
    assert cost == 0.05
    assert db.clock.now_ms == now + cost
    assert db.counters.reconfigurations == 1
    # state unchanged, so the compiled plan is still served
    db.execute("SELECT COUNT(*) FROM events WHERE user = 3")
    assert db.planner.cache_stats.hits == hits + 1


def test_drop_index_costs_per_chunk_that_holds_it():
    db = make_small_database(rows=4_000, chunk_size=1_000)
    db.create_index("events", ["user"], chunk_ids=[0, 2])
    # listed or not, only the two chunks holding the index are charged
    assert DropIndexAction("events", ("user",)).estimate_cost_ms(db) == 0.02 * 2
    assert (
        DropIndexAction("events", ("user",), (0, 1, 2, 3)).estimate_cost_ms(db)
        == 0.02 * 2
    )
    assert db.drop_index("events", ["user"]) == 0.02 * 2
    assert db.drop_index("events", ["user"]) == 0.0


def test_set_encoding_action_touches_only_listed_chunks():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    inverse = SetEncodingAction(
        "events", "user", EncodingType.DICTIONARY, (0,)
    ).apply_raw(db)
    table = db.table("events")
    assert table.chunk(0).encoding_of("user") is EncodingType.DICTIONARY
    assert table.chunk(1).encoding_of("user") is EncodingType.UNENCODED
    assert inverse == [
        SetEncodingAction("events", "user", EncodingType.UNENCODED, (0,))
    ]

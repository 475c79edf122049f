"""Property: the plan and cost caches never answer from a stale state.

Both caches key on what a query reads (``docs/planner.md``, "Footprints
and caches"). Over generated sequences of everything that can change a
database's physical state — raw actions, nested ``hypothetical`` enter
and exit, executor apply and rollback, accounted execution with buffer
pool traffic, ``swap_buffer_pool``, chunks mutated directly behind every
facade, appends — every cached ``plan_for`` / ``batch_query_costs``
answer must equal what a cache-less planner and executor produce for the
state as it is after each step.
"""

import numpy as np
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
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.executor import BufferPool, QueryExecutor
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.plan.planner import QueryPlanner
from repro.tuning.executors.sequential import SequentialExecutor
from repro.util.units import MIB
from repro.workload import Predicate, Query

from tests.conftest import make_small_database

QUERIES = (
    Query("events", (Predicate("user", "=", 7),), aggregate="count"),
    Query("events", (Predicate("user", "=", 7), Predicate("kind", "=", "buy"))),
    # probes (user, kind) / (user, value) on `user` alone: rows come back
    # in index order, whatever the other key column's encoding is
    Query("events", (Predicate("user", "=", 7),), projection=("id", "kind")),
    Query("events", (Predicate("id", "<", 150),), projection=("id", "value")),
    Query("events", (Predicate("value", ">", 9.5),), aggregate="sum",
          aggregate_column="value"),
    Query("events", aggregate="count"),
)

_INDEX_KEYS = [("user",), ("user", "kind"), ("user", "value"), ("id",), ("kind",)]
_chunk_scope = st.one_of(
    st.none(), st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True)
)

_actions = st.one_of(
    st.builds(
        lambda key, scope: CreateIndexAction("events", key, scope and tuple(scope)),
        st.sampled_from(_INDEX_KEYS), _chunk_scope,
    ),
    st.builds(
        lambda key, scope: DropIndexAction("events", key, scope and tuple(scope)),
        st.sampled_from(_INDEX_KEYS), _chunk_scope,
    ),
    st.builds(
        lambda column, encoding, scope: SetEncodingAction(
            "events", column, encoding, scope and tuple(scope)
        ),
        st.sampled_from(["id", "user", "kind"]),
        st.sampled_from(
            [EncodingType.UNENCODED, EncodingType.DICTIONARY,
             EncodingType.RUN_LENGTH]
        ),
        _chunk_scope,
    ),
    st.builds(
        lambda chunk, tier: MoveChunkAction("events", chunk, tier),
        st.integers(0, 2), st.sampled_from(list(StorageTier)),
    ),
    st.builds(
        lambda column, chunk: SortChunkAction("events", column, (chunk,)),
        st.sampled_from(["user", "value"]), st.integers(0, 2),
    ),
    st.builds(SetKnobAction, st.just(SCAN_THREADS_KNOB), st.sampled_from([1, 4, 8])),
    st.builds(
        SetKnobAction, st.just(BUFFER_POOL_KNOB),
        st.sampled_from([0.0, 32.0 * MIB, 256.0 * MIB]),
    ),
)
_deltas = st.lists(_actions, min_size=1, max_size=3).map(ConfigurationDelta)

_steps = st.one_of(
    st.tuples(st.just("raw"), _actions),
    st.tuples(st.just("enter"), _deltas),
    st.tuples(st.just("exit"), st.none()),
    st.tuples(st.just("execute_and_roll_back"), _deltas),
    st.tuples(st.just("run"), st.sampled_from(QUERIES)),
    # 12 kB holds one of the three 200-row chunks: admissions evict
    st.tuples(st.just("swap_pool"), st.sampled_from([0.0, 12_000.0, 32.0 * MIB])),
    st.tuples(st.just("chunk_index"), st.tuples(st.integers(0, 2),
                                                 st.sampled_from(_INDEX_KEYS))),
    st.tuples(st.just("chunk_encode"), st.tuples(
        st.integers(0, 2), st.sampled_from(["user", "kind"]),
        st.sampled_from([EncodingType.DICTIONARY, EncodingType.UNENCODED]),
    )),
    st.tuples(st.just("append"), st.integers(1, 40)),
)


def _take(db, optimizer, hypotheticals, step, payload) -> None:
    table = db.table("events")
    if step == "raw":
        payload.apply_raw(db)
    elif step == "enter":
        entered = optimizer.hypothetical(payload)
        entered.__enter__()
        hypotheticals.append(entered)
    elif step == "exit":
        if hypotheticals:
            hypotheticals.pop().__exit__(None, None, None)
    elif step == "execute_and_roll_back":
        executor = SequentialExecutor()
        report = executor.execute(payload, db)
        executor.rollback(db, report.inverse_actions)
    elif step == "run":
        db.execute(payload)
    elif step == "swap_pool":
        db.executor.swap_buffer_pool(BufferPool(payload))
    elif step == "chunk_index":
        position, key = payload
        chunk = table.chunks()[position]
        if chunk.has_index(key):
            chunk.drop_index(key)
        else:
            chunk.create_index(key)
    elif step == "chunk_encode":
        position, column, encoding = payload
        table.chunks()[position].set_encoding(column, encoding)
    elif step == "append":
        rng = np.random.default_rng(payload)
        table.append(
            {
                "id": 10_000 + np.arange(payload),
                "user": rng.integers(0, 100, payload),
                "kind": rng.choice(["view", "buy"], payload),
                "value": rng.uniform(0, 10, payload),
            }
        )


def _assert_caches_agree_with_the_state(db, optimizer) -> None:
    table = db.table("events")
    # the reference shares nothing with the caches under test: a planner
    # that never caches, and an executor around it peeking the live pool
    fresh = QueryPlanner(cache_size=0)
    reference = QueryExecutor(db.hardware, db.knobs, fresh)
    reference.swap_buffer_pool(db.executor.buffer_pool)
    costs = optimizer.batch_query_costs(QUERIES)
    for query, cost in zip(QUERIES, costs):
        assert (
            db.planner.plan_for(query, table).steps
            == fresh.compile(query, table).steps
        )
        expected = reference.execute(query, table, materialize=True, probe=True)
        assert cost == expected.report.elapsed_ms
        # and the cached plan still binds structures that answer alike
        got = db.executor.execute(query, table, materialize=True, probe=True)
        assert got.row_count == expected.row_count
        assert got.aggregate_value == expected.aggregate_value
        if expected.rows is not None:
            for name, values in expected.rows.items():
                assert np.array_equal(got.rows[name], values)


@settings(max_examples=60, deadline=None)
@given(st.lists(_steps, min_size=1, max_size=14))
def test_cached_plans_and_costs_equal_fresh_ones_after_every_step(steps):
    db = make_small_database(rows=600, chunk_size=200)
    optimizer = WhatIfOptimizer(db)
    _assert_caches_agree_with_the_state(db, optimizer)
    hypotheticals: list = []  # entered and not yet left, innermost last
    steps = [*steps, *[("exit", None)] * len(steps)]
    for step, payload in steps:
        _take(db, optimizer, hypotheticals, step, payload)
        _assert_caches_agree_with_the_state(db, optimizer)

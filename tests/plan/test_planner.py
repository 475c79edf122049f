"""Tests for the QueryPlanner: compilation, caching, and invalidation."""

from repro.dbms.executor import QueryExecutor
from repro.dbms.knobs import KnobRegistry, standard_knobs
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.plan import QueryPlanner, StepKind
from repro.workload import Predicate, Query

from tests.conftest import make_small_database

import numpy as np


def test_compile_chooses_prune_index_and_scan_per_chunk():
    db = make_small_database(rows=5_000, chunk_size=1_000)
    table = db.table("events")
    # index only chunk 0: an equality on id is highly selective there,
    # while chunks whose zone maps exclude the literal are pruned
    db.create_index("events", ["id"], chunk_ids=[0])

    plan = db.planner.plan_for(
        Query("events", (Predicate("id", "=", 100),)), table
    )
    kinds = plan.step_kinds()
    assert kinds[0] is StepKind.INDEX_PROBE
    assert all(kind is StepKind.PRUNE for kind in kinds[1:])

    # a predicate no zone map can exclude falls back to scanning
    plan = db.planner.plan_for(
        Query("events", (Predicate("user", "<", 200),)), table
    )
    assert all(kind is StepKind.FULL_SCAN for kind in plan.step_kinds())


def test_index_probe_steps_carry_residual_predicates():
    db = make_small_database(rows=1_000, chunk_size=1_000)
    db.create_index("events", ["user"])
    query = Query(
        "events",
        (Predicate("user", "=", 7), Predicate("value", "<", 5.0)),
    )
    plan = db.planner.plan_for(query, db.table("events"))
    (step,) = plan.steps
    assert step.kind is StepKind.INDEX_PROBE
    assert step.index_key == ("user",)
    # a step names predicates by position in the query
    assert step.equal_positions == (0,)
    assert step.scan_positions == (1,)


def test_plan_for_caches_until_a_structural_change():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    table = db.table("events")
    query = Query("events", (Predicate("user", "=", 7),))

    first = db.planner.plan_for(query, table)
    second = db.planner.plan_for(query, table)
    assert second is first  # served from the cache, not recompiled
    stats = db.planner.cache_stats
    assert (stats.hits, stats.misses) == (1, 1)

    db.create_index("events", ["user"])
    third = db.planner.plan_for(query, table)
    assert third is not first
    assert third.index_chunks == len(table.chunks())
    assert db.planner.cache_stats.misses == 2


def test_buffer_pool_traffic_does_not_invalidate_cached_plans():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    db.move_chunk("events", 0, StorageTier.SSD)
    query = Query("events", (Predicate("user", "=", 7),))

    db.execute(query)  # compiles; the pool admits chunk 0
    assert db.executor.buffer_pool.entry_count == 1
    hits_before = db.planner.cache_stats.hits
    db.execute(query)
    # tier and pool residency are bind-time facts, not part of what a
    # plan's footprint names: the cached compiled plan survives
    assert db.planner.cache_stats.hits == hits_before + 1


def test_appending_rows_invalidates_via_the_chunk_count_guard():
    # (the guard is gone: an append adds a chunk to the table's footprint,
    # so the old plan's key is simply never asked for again)
    db = make_small_database(rows=2_000, chunk_size=1_000)
    table = db.table("events")
    query = Query("events", (Predicate("user", "=", 7),))
    first = db.planner.plan_for(query, table)
    assert len(first.steps) == 2

    rows = 1_000
    table.append(
        {
            "id": np.arange(rows) + 2_000,
            "user": np.zeros(rows, dtype=np.int64),
            "kind": np.array(["view"] * rows),
            "value": np.zeros(rows),
        }
    )
    second = db.planner.plan_for(query, table)
    assert len(second.steps) == 3
    assert db.planner.cache_stats.misses == 2


def test_lru_eviction_and_resize():
    db = make_small_database(rows=1_000, chunk_size=1_000)
    table = db.table("events")
    db.planner.resize_cache(2)
    queries = [
        Query("events", (Predicate("user", "=", value),))
        for value in (1, 2, 3)
    ]
    for query in queries:
        db.planner.plan_for(query, table)
    assert db.planner.cache_stats.evictions == 1
    assert len(db.planner.cache_stats.as_dict()) == 6
    # the oldest entry was evicted: replanning it misses
    misses = db.planner.cache_stats.misses
    db.planner.plan_for(queries[0], table)
    assert db.planner.cache_stats.misses == misses + 1

    db.planner.resize_cache(0)  # disables caching entirely
    before = db.planner.cache_stats.hits
    db.planner.plan_for(queries[2], table)
    db.planner.plan_for(queries[2], table)
    assert db.planner.cache_stats.hits == before


def test_cache_keys_on_literals_not_templates():
    # prune and index choice depend on literal values, so two queries of
    # the same template must compile (and cache) separately
    db = make_small_database(rows=2_000, chunk_size=1_000)
    table = db.table("events")
    narrow = db.planner.plan_for(
        Query("events", (Predicate("id", "<", 100),)), table
    )
    wide = db.planner.plan_for(
        Query("events", (Predicate("id", "<", 1_900),)), table
    )
    assert narrow.pruned_chunks == 1
    assert wide.pruned_chunks == 0
    assert db.planner.cache_stats.misses == 2


def test_encoding_and_sort_changes_recompile_plans():
    db = make_small_database(rows=1_000, chunk_size=1_000)
    table = db.table("events")
    query = Query("events", (Predicate("user", "=", 7),))
    db.planner.plan_for(query, table)

    misses = db.planner.cache_stats.misses
    db.set_encoding("events", "user", EncodingType.DICTIONARY)
    db.planner.plan_for(query, table)
    assert db.planner.cache_stats.misses == misses + 1

    misses = db.planner.cache_stats.misses
    db.sort_chunk("events", 0, "user")
    db.planner.plan_for(query, table)
    assert db.planner.cache_stats.misses == misses + 1


def test_a_database_planner_counts_in_the_database_registry():
    db = make_small_database(rows=1_000, chunk_size=1_000)
    assert db.planner.registry is db.registry
    before = db.registry.read("plan_compiles")
    db.planner.plan_for(
        Query("events", (Predicate("user", "=", 7),)), db.table("events")
    )
    assert db.registry.read("plan_compiles") == before + 1.0
    assert db.registry.read("plan_cache_size") == db.planner.cache_stats.size


def test_standalone_executor_caches_plans_per_table():
    # no owning Database is needed to keep a cache honest: the key names
    # the table and what the plan binds in it
    db = make_small_database(rows=1_000, chunk_size=1_000)
    twin = make_small_database(rows=1_000, chunk_size=1_000)
    executor = QueryExecutor(
        db.hardware, KnobRegistry(standard_knobs()), QueryPlanner()
    )
    query = Query("events", (Predicate("user", "=", 7),))
    table = db.table("events")
    executor.execute(query, table)
    executor.execute(query, table)
    stats = executor.planner.cache_stats
    assert (stats.hits, stats.misses) == (1, 1)
    # an equal-looking table of another database is not the same table
    executor.execute(query, twin.table("events"))
    assert executor.planner.cache_stats.misses == 2
    # and a chunk mutated directly, behind every facade, is noticed
    table.chunks()[0].create_index(["user"])
    result = executor.execute(query, table)
    assert result.report.work.chunks_via_index == 1


def test_tied_indexes_are_compiled_by_key_not_by_creation_order():
    # (user, id) and (user, value) tie on every score for an equality on
    # `user` alone: the compiled step names the smaller key whichever
    # index was created first, and after a drop and re-create
    query = Query("events", (Predicate("user", "=", 5),), aggregate="count")
    chosen = []
    for order in ((["user", "id"], ["user", "value"]), (["user", "value"], ["user", "id"])):
        db = make_small_database(rows=2_000, chunk_size=1_000)
        for columns in order:
            db.create_index("events", columns)
        chosen.append(db.planner.compile(query, db.table("events")).steps[0].index_key)
        db.drop_index("events", ["user", "id"])
        db.create_index("events", ["user", "id"])
        chosen.append(db.planner.compile(query, db.table("events")).steps[0].index_key)
    assert chosen == [("user", "id")] * 4


def test_one_shape_probes_or_scans_by_its_range_literals():
    """A range decides between a probe and a scan on the same live
    chunks: each literal's plan executes as the reference executes its
    steps, whatever plan of the shape was compiled before it."""
    from tests.reference import reference_compile, scalar_reference

    dbs = [make_small_database(rows=4_000, chunk_size=1_000) for _ in range(2)]
    for db in dbs:
        db.create_index("events", ["value"])
    kinds = set()
    for lo, hi in ((2.0, 2.1), (1.0, 9.0), (5.0, 5.2), (0.5, 8.5)):
        query = Query(
            "events",
            (Predicate("value", ">=", lo), Predicate("value", "<=", hi)),
            aggregate="count",
        )
        table = dbs[0].table("events")
        plan = dbs[0].planner.plan_for(query, table)
        assert plan.steps == reference_compile(query, table)
        kinds.update(plan.step_kinds())
        kernel = dbs[0].execute(query)
        with scalar_reference() as calls:
            scalar = dbs[1].execute(query)
        assert calls.count == 1
        assert kernel.report == scalar.report
    assert kinds == {StepKind.INDEX_PROBE, StepKind.FULL_SCAN}

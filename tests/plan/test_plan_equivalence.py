"""Golden tests: executor and cost model run the *same* compiled plan.

The point of the unified plan layer is that access-path choice can no
longer drift between the engine and its estimators: the executor's
per-chunk access paths, the physical cost model's priced steps, and the
what-if probe path all come from one :class:`PhysicalPlan`. These tests
pin that equivalence across encodings, storage tiers, and index layouts.
"""

import numpy as np
import pytest

from repro.cost.physical import PhysicalCostModel
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.workload import Predicate, Query

from tests.conftest import make_small_database


def make_heterogeneous_database():
    """Five chunks with deliberately divergent physical designs."""
    db = make_small_database(rows=5_000, chunk_size=1_000)
    db.create_index("events", ["user"], chunk_ids=[0, 2])
    db.create_index("events", ["id"], chunk_ids=[1])
    db.set_encoding("events", "kind", EncodingType.DICTIONARY)
    db.set_encoding("events", "user", EncodingType.RUN_LENGTH, chunk_ids=[3])
    db.set_encoding(
        "events", "id", EncodingType.FRAME_OF_REFERENCE, chunk_ids=[4]
    )
    db.move_chunk("events", 1, StorageTier.NVM)
    db.move_chunk("events", 4, StorageTier.SSD)
    db.sort_chunk("events", 2, "user")
    return db


QUERIES = (
    Query("events", (Predicate("user", "=", 7),)),
    Query("events", (Predicate("id", "<", 700),)),
    Query("events", (Predicate("id", ">", 2_500), Predicate("user", "=", 3))),
    Query(
        "events",
        (Predicate("user", "=", 7), Predicate("value", "<", 4.0)),
        aggregate="sum",
        aggregate_column="value",
    ),
    Query("events", (), projection=("id", "kind")),
)


@pytest.mark.parametrize("query", QUERIES, ids=[str(q.template()) for q in QUERIES])
def test_executor_and_estimator_share_one_plan(query):
    db = make_heterogeneous_database()
    table = db.table("events")

    plan = db.planner.plan_for(query, table)
    result = db.execute(query)
    work = result.report.work
    assert work.chunks_visited == len(plan.steps)
    assert work.chunks_via_index == plan.index_chunks

    # the estimator prices the identical cached plan object — zero extra
    # compiles, and therefore zero chance of a divergent access path
    compiles = db.planner.cache_stats.misses
    PhysicalCostModel(db).estimate_query_ms(query)
    assert db.planner.plan_for(query, table) is plan
    assert db.planner.cache_stats.misses == compiles


def test_plans_agree_after_every_structural_mutation():
    db = make_small_database(rows=3_000, chunk_size=1_000)
    query = Query("events", (Predicate("user", "=", 7),))
    model = PhysicalCostModel(db)
    for mutate in (
        lambda: db.create_index("events", ["user"]),
        lambda: db.set_encoding("events", "user", EncodingType.DICTIONARY),
        lambda: db.move_chunk("events", 0, StorageTier.SSD),
        lambda: db.drop_index("events", ["user"], [1]),
    ):
        mutate()
        model.estimate_query_ms(query)
        result = db.execute(query)
        plan = db.planner.plan_for(query, db.table("events"))
        work = result.report.work
        assert work.chunks_visited == len(plan.steps)
        assert work.chunks_via_index == plan.index_chunks


def test_results_identical_with_and_without_plan_cache():
    db_cached = make_heterogeneous_database()
    db_fresh = make_heterogeneous_database()
    db_fresh.planner.resize_cache(0)
    for query in QUERIES:
        for _repeat in range(2):
            cached = db_cached.execute(query, materialize=True)
            fresh = db_fresh.execute(query, materialize=True)
            assert cached.row_count == fresh.row_count
            assert cached.aggregate_value == fresh.aggregate_value
            assert cached.report.elapsed_ms == fresh.report.elapsed_ms
            if cached.rows is not None:
                for name, values in cached.rows.items():
                    np.testing.assert_array_equal(values, fresh.rows[name])
    assert db_cached.planner.cache_stats.hits > 0
    assert db_fresh.planner.cache_stats.hits == 0


def test_output_bytes_derive_from_statistics_not_decoding():
    # satellite fix: a non-materialised execution must not decode projected
    # segments just to count output bytes — the plan carries the per-row
    # width from chunk statistics, and both modes report the same size
    db = make_small_database(rows=1_000, chunk_size=1_000)
    table = db.table("events")
    chunk = table.chunks()[0]
    query = Query(
        "events", (Predicate("user", "=", 7),), projection=("id", "kind")
    )

    lean = db.execute(query)
    width = sum(
        chunk.statistics(name).avg_item_bytes for name in ("id", "kind")
    )
    expected = lean.row_count * width
    assert lean.report.work.output_bytes == pytest.approx(expected)

    fat = db.execute(query, materialize=True)
    assert fat.report.work.output_bytes == pytest.approx(expected)
    assert fat.report.elapsed_ms == lean.report.elapsed_ms
    assert set(fat.rows) == {"id", "kind"}
    assert len(fat.rows["id"]) == lean.row_count

"""Tests for design-exploration calibration of the learned model."""

from repro.configuration.config import ConfigurationInstance
from repro.cost.calibration import (
    calibration_queries,
    run_design_exploration,
    run_startup_calibration,
)
from repro.cost.learned import LearnedCostModel
from repro.workload import Predicate, Query

from tests.conftest import make_small_database


def test_exploration_leaves_no_trace():
    db = make_small_database(rows=2_000)
    model = LearnedCostModel(db)
    run_startup_calibration(db, model, seed=0)
    before = ConfigurationInstance.capture(db)
    clock = db.clock.now_ms
    added = run_design_exploration(db, model, seed=0)
    assert added > 0
    after = ConfigurationInstance.capture(db)
    assert before.indexes == after.indexes
    assert db.clock.now_ms == clock  # probes are unaccounted


def test_exploration_keeps_epochs_and_cached_plans():
    db = make_small_database(rows=2_000)
    db.create_index("events", ["user"], chunk_ids=[0])  # one partly indexed
    model = LearnedCostModel(db)
    run_startup_calibration(db, model, seed=0)  # compiles the suite's plans

    assert run_design_exploration(db, model, seed=0) == 6

    # every plan compiled before the exploration is still served: the
    # hypothetical designs had footprints of their own
    table = db.table("events")
    queries = calibration_queries(db, seed=0)
    before = db.planner.cache_stats
    for query in queries:
        db.planner.plan_for(query, table)
    after = db.planner.cache_stats
    assert after.hits == before.hits + len(queries)
    assert (after.misses, after.size) == (before.misses, before.size)


def test_exploration_teaches_index_sensitivity():
    db = make_small_database(rows=10_000, chunk_size=2_000)
    query = Query("events", (Predicate("user", "=", 7),), aggregate="count")

    blind = LearnedCostModel(db)
    run_startup_calibration(db, blind, seed=1)
    informed = LearnedCostModel(db)
    run_startup_calibration(db, informed, seed=1)
    run_design_exploration(db, informed, seed=1)

    without_index = informed.estimate_query_ms(query)
    db.create_index("events", ["user"])
    with_index = informed.estimate_query_ms(query)
    # the explored model prices the indexed configuration cheaper
    assert with_index < without_index
    # the blind model barely distinguishes them
    blind_delta = abs(
        blind.estimate_query_ms(query) - without_index
    )
    del blind_delta  # the blind model's absolute level is untested; the
    # informative assertion is the directional one above


def test_exploration_skips_already_indexed_columns():
    db = make_small_database(rows=1_000)
    model = LearnedCostModel(db)
    run_startup_calibration(db, model, seed=0)
    for column in ("id", "user", "value"):
        db.create_index("events", [column])
    added = run_design_exploration(db, model, seed=0, columns_per_table=3)
    assert added == 0
    # existing indexes untouched
    assert db.table("events").chunks()[0].has_index(["user"])

"""Tests for the logical, physical, and learned cost models."""

import numpy as np
import pytest

from repro.cost.calibration import calibration_queries, run_startup_calibration
from repro.cost.learned import LearnedCostModel
from repro.cost.logical import LogicalCostModel
from repro.cost.physical import PhysicalCostModel
from repro.dbms.hardware import HardwareProfile
from repro.dbms.storage_tiers import StorageTier
from repro.errors import CalibrationError
from repro.workload.predicate import Predicate
from repro.workload.query import Query

from tests.conftest import make_small_database


def _probe(db, query):
    return db.executor.execute(query, db.table(query.table), probe=True).report.elapsed_ms


def test_logical_model_orders_by_scan_volume():
    db = make_small_database(rows=10_000)
    model = LogicalCostModel(db)
    narrow = Query("events", (Predicate("user", "=", 1),), aggregate="count")
    wide = Query("events", (), aggregate="count")
    assert model.estimate_query_ms(wide) > 0
    assert model.estimate_query_ms(narrow) > 0


def test_logical_model_is_blind_to_physical_design():
    db = make_small_database(rows=10_000)
    model = LogicalCostModel(db)
    query = Query("events", (Predicate("user", "=", 1),), aggregate="count")
    before = model.estimate_query_ms(query)
    db.create_index("events", ["user"])
    db.move_chunk("events", 0, StorageTier.SSD)
    assert model.estimate_query_ms(query) == pytest.approx(before)


def test_physical_model_tracks_actual_cost_closely():
    db = make_small_database(rows=20_000, chunk_size=4_000)
    model = PhysicalCostModel(db)
    queries = [
        Query("events", (Predicate("user", "=", 7),), aggregate="count"),
        Query("events", (Predicate("value", "<", 2.0),), aggregate="sum",
              aggregate_column="value"),
        Query("events", (Predicate("kind", "=", "click"),)),
    ]
    for query in queries:
        actual = _probe(db, query)
        estimate = model.estimate_query_ms(query)
        assert abs(estimate - actual) / actual < 0.5


def test_physical_model_sees_indexes_and_tiers():
    db = make_small_database(rows=20_000, chunk_size=4_000)
    model = PhysicalCostModel(db)
    query = Query("events", (Predicate("user", "=", 7),), aggregate="count")
    base = model.estimate_query_ms(query)
    db.create_index("events", ["user"])
    with_index = model.estimate_query_ms(query)
    assert with_index < base
    for chunk_id in db.table("events").chunk_ids():
        db.move_chunk("events", chunk_id, StorageTier.SSD)
    on_ssd = model.estimate_query_ms(query)
    assert on_ssd > with_index


def test_physical_model_prices_a_pooled_chunk_as_dram_and_only_peeks(
    monkeypatch,
):
    """A chunk off DRAM whose copy sits in the buffer pool prices as DRAM,
    every other chunk at its own tier; pricing only peeks, so the pool's
    entries, bytes and LRU order are as they were."""
    db = make_small_database(rows=5_000, chunk_size=1_000)
    chunks = db.table("events").chunks()
    pooled, unpooled, nvm, pooled_too = (c.chunk_id for c in chunks[:4])
    for chunk_id in (pooled, unpooled, pooled_too):
        db.move_chunk("events", chunk_id, StorageTier.SSD)
    db.move_chunk("events", nvm, StorageTier.NVM)
    pool = db.executor.buffer_pool
    pool.clear()
    for chunk in (chunks[0], chunks[3]):
        pool.access(("events", chunk.chunk_id), chunk.data_bytes())
    entries = list(pool._entries.items())
    used = pool.used_bytes

    tiers = []
    scan_ms = HardwareProfile.scan_ms

    def recording(self, scan_units, tier, threads=1):
        tiers.append(tier)
        return scan_ms(self, scan_units, tier, threads)

    monkeypatch.setattr(HardwareProfile, "scan_ms", recording)
    query = Query("events", (Predicate("value", "<", 5.0),), aggregate="count")
    assert PhysicalCostModel(db).estimate_query_ms(query) > 0
    assert tiers == [
        StorageTier.DRAM,  # pooled SSD
        StorageTier.SSD,
        StorageTier.NVM,
        StorageTier.DRAM,  # pooled SSD
        StorageTier.DRAM,
    ]
    # an access would have moved the first entry behind the second
    assert list(pool._entries.items()) == entries
    assert pool.used_bytes == used


def test_learned_model_requires_calibration():
    db = make_small_database(rows=1_000)
    model = LearnedCostModel(db)
    with pytest.raises(CalibrationError):
        model.estimate_query_ms(Query("events", aggregate="count"))
    with pytest.raises(CalibrationError):
        model.refit()


def test_learned_model_improves_with_observations():
    db = make_small_database(rows=10_000, chunk_size=2_000)
    model = LearnedCostModel(db)
    n = run_startup_calibration(db, model, seed=2)
    assert n == len(calibration_queries(db, seed=2))
    assert model.is_fitted
    rng = np.random.default_rng(0)
    errors = []
    for _ in range(20):
        query = Query(
            "events",
            (Predicate("user", "=", int(rng.integers(0, 100))),),
            aggregate="count",
        )
        actual = _probe(db, query)
        errors.append(abs(model.estimate_query_ms(query) - actual) / actual)
    assert np.median(errors) < 1.0


def test_learned_model_adapts_after_config_change():
    db = make_small_database(rows=10_000, chunk_size=2_000)
    model = LearnedCostModel(db)
    run_startup_calibration(db, model, seed=0)
    query = Query("events", (Predicate("user", "=", 5),), aggregate="count")
    db.create_index("events", ["user"])
    # collect post-change observations and refit on them
    for value in range(12):
        q = Query("events", (Predicate("user", "=", value),), aggregate="count")
        model.observe(q, _probe(db, q))
    model.refit()
    estimate = model.estimate_query_ms(query)
    actual = _probe(db, query)
    assert estimate >= db.hardware.overhead_ms()
    assert abs(estimate - actual) < 10 * actual + 0.05


def test_learned_model_features_shape():
    db = make_small_database(rows=1_000)
    model = LearnedCostModel(db)
    features = model.features(Query("events", aggregate="count"))
    assert features.shape == (len(LearnedCostModel.FEATURE_NAMES),)
    assert features[0] == 1.0  # bias


def test_calibration_queries_cover_all_columns():
    db = make_small_database(rows=2_000)
    queries = calibration_queries(db)
    columns_hit = {p.column for q in queries for p in q.predicates}
    assert columns_hit == {"id", "user", "kind", "value"}

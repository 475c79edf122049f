"""Tests for the tuning executor and the feature tuners."""

import pytest

from repro.configuration.actions import CreateIndexAction, SetKnobAction
from repro.configuration.constraints import (
    DRAM_BYTES,
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.tuning.candidate import (
    EncodingCandidate,
    IndexCandidate,
    KnobCandidate,
    PlacementCandidate,
)
from repro.tuning.executors import SequentialExecutor
from repro.tuning.features import (
    BufferPoolFeature,
    CompressionFeature,
    DataPlacementFeature,
    IndexSelectionFeature,
    standard_features,
)

from tests.conftest import make_forecast

# ----------------------------------------------------------------------
# executors


def _delta():
    return ConfigurationDelta(
        [
            CreateIndexAction("orders", ("customer",)),
            CreateIndexAction("orders", ("order_date",)),
            SetKnobAction(SCAN_THREADS_KNOB, 4),
        ]
    )


def test_sequential_executor_applies_in_order(retail_suite):
    db = retail_suite.database
    report = SequentialExecutor().execute(_delta(), db)
    assert report.action_count == 3
    assert report.elapsed_ms == pytest.approx(report.total_work_ms)
    assert db.table("orders").chunks()[0].has_index(["customer"])
    assert db.knobs.get(SCAN_THREADS_KNOB) == 4


# ----------------------------------------------------------------------
# index selection feature


def test_index_feature_reset_drops_workload_indexes(retail_suite, retail_forecast):
    db = retail_suite.database
    db.create_index("orders", ["customer"])
    feature = IndexSelectionFeature()
    reset = feature.reset_delta(db, retail_forecast)
    assert len(reset) == 1
    reset.apply(db)
    assert db.index_bytes() == 0


def test_index_feature_delta_creates_and_drops(retail_suite, retail_forecast):
    db = retail_suite.database
    db.create_index("orders", ["priority"])  # stale index, not chosen
    feature = IndexSelectionFeature()
    delta = feature.delta_for_choices(
        db, [IndexCandidate("orders", ("customer",))], retail_forecast
    )
    summaries = delta.describe()
    assert any("DROP INDEX" in s and "priority" in s for s in summaries)
    assert any("CREATE INDEX" in s and "customer" in s for s in summaries)
    delta.apply(db)
    chunk = db.table("orders").chunks()[0]
    assert chunk.has_index(["customer"])
    assert not chunk.has_index(["priority"])


def test_index_feature_budget_subtracts_outside_scope(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=["point_customer"])  # orders only
    db.create_index("inventory", ["product"])  # outside scope
    outside = db.table("inventory").index_bytes()
    feature = IndexSelectionFeature()
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1_000_000)])
    budgets = feature.budgets(db, constraints, forecast)
    assert budgets[INDEX_MEMORY] == pytest.approx(1_000_000 - outside)


def test_index_feature_no_budget_without_constraint(retail_suite, retail_forecast):
    feature = IndexSelectionFeature()
    assert feature.budgets(retail_suite.database, ConstraintSet(), retail_forecast) == {}


# ----------------------------------------------------------------------
# compression feature


def test_compression_reset_unencodes_scope(retail_suite, retail_forecast):
    db = retail_suite.database
    db.set_encoding("orders", "customer", EncodingType.DICTIONARY)
    feature = CompressionFeature()
    reset = feature.reset_delta(db, retail_forecast)
    reset.apply(db)
    assert db.table("orders").chunks()[0].encoding_of("customer") is (
        EncodingType.UNENCODED
    )


def test_compression_delta_skips_noops(retail_suite, retail_forecast):
    db = retail_suite.database
    feature = CompressionFeature()
    choices = [
        EncodingCandidate("orders", "customer", EncodingType.UNENCODED),  # noop
        EncodingCandidate("orders", "status", EncodingType.DICTIONARY),
    ]
    delta = feature.delta_for_choices(db, choices, retail_forecast)
    assert len(delta) == 1
    assert "status" in delta.describe()[0]


# ----------------------------------------------------------------------
# data placement feature


def test_placement_reset_returns_all_to_dram(retail_suite, retail_forecast):
    db = retail_suite.database
    db.move_chunk("orders", 0, StorageTier.SSD)
    feature = DataPlacementFeature()
    reset = feature.reset_delta(db, retail_forecast)
    reset.apply(db)
    assert db.table("orders").chunk(0).tier is StorageTier.DRAM


def test_placement_budget_is_relative_to_all_dram(retail_suite, retail_forecast):
    db = retail_suite.database
    feature = DataPlacementFeature()
    total = sum(
        c.memory_bytes() for t in db.catalog.tables() for c in t.chunks()
    )
    constraints = ConstraintSet([ResourceBudget(DRAM_BYTES, total / 2)])
    budgets = feature.budgets(db, constraints, retail_forecast)
    assert budgets[DRAM_BYTES] == pytest.approx(total / 2 - total)


def test_placement_delta_moves_only_changes(retail_suite, retail_forecast):
    db = retail_suite.database
    feature = DataPlacementFeature()
    choices = [
        PlacementCandidate("orders", 0, StorageTier.DRAM),  # noop
        PlacementCandidate("orders", 1, StorageTier.NVM),
    ]
    delta = feature.delta_for_choices(db, choices, retail_forecast)
    assert len(delta) == 1
    delta.apply(db)
    assert db.table("orders").chunk(1).tier is StorageTier.NVM


# ----------------------------------------------------------------------
# buffer pool feature


def test_buffer_pool_feature_delta(retail_suite, retail_forecast):
    db = retail_suite.database
    feature = BufferPoolFeature()
    current = db.knobs.get(BUFFER_POOL_KNOB)
    noop = feature.delta_for_choices(
        db, [KnobCandidate(BUFFER_POOL_KNOB, current, "buffer_pool")], retail_forecast
    )
    assert noop.is_empty
    change = feature.delta_for_choices(
        db, [KnobCandidate(BUFFER_POOL_KNOB, 0.0, "buffer_pool")], retail_forecast
    )
    assert len(change) == 1
    change.apply(db)
    assert db.knobs.get(BUFFER_POOL_KNOB) == 0.0


def test_buffer_pool_budget_leaves_headroom(retail_suite, retail_forecast):
    db = retail_suite.database
    feature = BufferPoolFeature()
    chunk_dram = float(db.tier_usage()[StorageTier.DRAM])
    constraints = ConstraintSet([ResourceBudget(DRAM_BYTES, chunk_dram + 1000)])
    budgets = feature.budgets(db, constraints, retail_forecast)
    assert budgets[DRAM_BYTES] == pytest.approx(1000)


def test_standard_features_cover_the_four_paper_features():
    names = {f.name for f in standard_features()}
    assert names == {
        "index_selection",
        "compression",
        "data_placement",
        "buffer_pool",
    }

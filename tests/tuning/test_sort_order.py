"""Tests for the sort-order feature: chunk sorting, actions, tuning."""

import numpy as np
import pytest

from repro.configuration.actions import SortChunkAction
from repro.configuration.config import ConfigurationInstance
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.segments import EncodingType, RunLengthSegment
from repro.errors import SchemaError
from repro.tuning.candidate import SortOrderCandidate
from repro.tuning.features.sort_order import SortOrderFeature
from repro.tuning.tuner import Tuner

from tests.conftest import make_forecast, make_small_database


def test_chunk_sort_by_reorders_all_segments():
    db = make_small_database(rows=1_000, chunk_size=1_000)
    chunk = db.table("events").chunk(0)
    users_before = np.sort(chunk.segment("user").values())
    ids_before = chunk.segment("id").values().copy()
    values_before = chunk.segment("value").values().copy()

    inverse, _rebuilt = chunk.sort_by("user")
    assert chunk.sort_column == "user"
    users = chunk.segment("user").values()
    np.testing.assert_array_equal(users, users_before)  # sorted order
    assert (np.diff(users) >= 0).all()
    # row integrity: (id, value) pairs still belong together
    ids = chunk.segment("id").values()
    values = chunk.segment("value").values()
    np.testing.assert_array_equal(values_before[ids], values)

    # the inverse permutation restores the exact original order
    chunk.apply_permutation(inverse, None)
    np.testing.assert_array_equal(chunk.segment("id").values(), ids_before)
    assert chunk.sort_column is None


_COLUMNS = (("id",), ("user",), ("kind",), ("value",), ("user", "kind"))


def _footprints(db):
    table = db.table("events")
    return {columns: table.footprint(columns) for columns in _COLUMNS}


def test_an_undone_sort_gives_every_footprint_back():
    db = make_small_database(rows=600, chunk_size=300)
    before = _footprints(db)
    sort = ConfigurationDelta([SortChunkAction("events", "user", None)])
    with WhatIfOptimizer(db).hypothetical(sort):
        assert all(
            footprint != before[columns]
            for columns, footprint in _footprints(db).items()
        )
    assert _footprints(db) == before


def test_a_new_order_never_takes_an_undone_orders_name():
    db = make_small_database(rows=600, chunk_size=300)
    loaded = _footprints(db)
    by_user = ConfigurationDelta([SortChunkAction("events", "user", None)])
    undo = by_user.apply_raw(db)
    sorted_by_user = _footprints(db)
    undo.apply_raw(db)
    assert _footprints(db) == loaded
    ConfigurationDelta([SortChunkAction("events", "value", None)]).apply_raw(db)
    for columns, footprint in _footprints(db).items():
        assert footprint != sorted_by_user[columns]
        assert footprint != loaded[columns]


def test_sort_is_idempotent():
    db = make_small_database(rows=500, chunk_size=500)
    chunk = db.table("events").chunk(0)
    chunk.sort_by("user")
    snapshot = chunk.segment("id").values().copy()
    identity, rebuilt = chunk.sort_by("user")
    np.testing.assert_array_equal(identity, np.arange(500))
    assert rebuilt == []
    np.testing.assert_array_equal(chunk.segment("id").values(), snapshot)


def test_sort_unknown_column_rejected():
    db = make_small_database(rows=100, chunk_size=100)
    with pytest.raises(SchemaError):
        db.table("events").chunk(0).sort_by("ghost")


def test_sort_rebuilds_indexes_correctly():
    db = make_small_database(rows=1_000, chunk_size=1_000)
    chunk = db.table("events").chunk(0)
    chunk.create_index(["user"])
    chunk.sort_by("value")
    users = chunk.segment("user").values()
    positions = chunk.index(["user"]).lookup((7,))
    np.testing.assert_array_equal(
        np.sort(positions), np.flatnonzero(users == 7)
    )


def test_sorting_makes_run_length_effective():
    db = make_small_database(rows=2_000, chunk_size=2_000)
    chunk = db.table("events").chunk(0)
    chunk.set_encoding("user", EncodingType.RUN_LENGTH)
    unsorted_runs = chunk.segment("user").run_count
    chunk.sort_by("user")
    segment = chunk.segment("user")
    assert isinstance(segment, RunLengthSegment)
    assert segment.run_count <= 100  # one run per distinct user
    assert segment.run_count < unsorted_runs / 5


def test_database_sort_chunk_accounts_cost():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    cost = db.sort_chunk("events", 0, "user")
    assert cost > 0
    assert db.counters.reconfigurations == 1
    assert db.table("events").chunk(0).sort_column == "user"
    # no-op re-sort is free
    assert db.sort_chunk("events", 0, "user") == 0.0


def test_sort_action_raw_roundtrip():
    db = make_small_database(rows=1_000, chunk_size=500)
    before = ConfigurationInstance.capture(db)
    ids_before = db.table("events").chunk(0).segment("id").values().copy()
    action = SortChunkAction("events", "user")
    inverse = action.apply_raw(db)
    assert db.table("events").chunk(0).sort_column == "user"
    for token in reversed(inverse):
        token.apply_raw(db)
    after = ConfigurationInstance.capture(db)
    assert after.sort_orders == before.sort_orders
    np.testing.assert_array_equal(
        db.table("events").chunk(0).segment("id").values(), ids_before
    )


def test_instance_capture_includes_sort_orders():
    db = make_small_database(rows=1_000, chunk_size=500)
    before = ConfigurationInstance.capture(db)
    assert all(column is None for _key, column in before.sort_orders)
    db.sort_chunk("events", 0, "user")
    after = ConfigurationInstance.capture(db)
    assert dict(after.sort_orders)[("events", 0)] == "user"
    assert [c for _key, c in after.sort_orders if c is not None] == ["user"]


def test_sort_order_pays_off_only_through_compression(retail_suite):
    """Sort alone is worthless (scanning an unencoded segment costs the
    same in any order) — so the tuner rightly declines it — but sort + RLE
    on the sorted column is a big win. This is the strong one-directional
    dependence the ordering LP exists to exploit."""
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=["status_count"])
    optimizer = WhatIfOptimizer(db)
    samples = dict(forecast.sample_queries)
    w_empty = optimizer.scenario_cost_ms(forecast.expected, samples)

    # a *myopic* assessment of the sort sees (correctly) no benefit ...
    from repro.tuning.assessors import CostModelAssessor

    myopic = Tuner(
        SortOrderFeature(), optimizer, assessor=CostModelAssessor(optimizer)
    ).propose(forecast)
    assert myopic.predicted_benefit_ms <= w_empty * 0.05
    # ... while the feature's default anticipating assessor prices the
    # enabling effect and proposes the sort
    anticipating = Tuner(SortOrderFeature(), optimizer).propose(forecast)
    assert anticipating.predicted_benefit_ms > w_empty * 0.5
    assert not anticipating.is_noop

    sort_delta = ConfigurationDelta(
        [SortChunkAction("orders", "status")]
    )
    with optimizer.hypothetical(sort_delta):
        w_sorted = optimizer.scenario_cost_ms(forecast.expected, samples)
        db.set_encoding("orders", "status", EncodingType.RUN_LENGTH)
        w_sorted_rle = optimizer.scenario_cost_ms(forecast.expected, samples)
        db.set_encoding("orders", "status", EncodingType.UNENCODED)
    # sorting alone moves little; sorted + RLE is dramatically cheaper
    assert abs(w_sorted - w_empty) < 0.15 * w_empty
    assert w_sorted_rle < 0.6 * w_empty
    assert w_sorted_rle < w_sorted


def test_sort_feature_delta_skips_already_sorted(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=["status_count"])
    feature = SortOrderFeature()
    candidate = SortOrderCandidate("orders", "status", None)
    delta = feature.delta_for_choices(db, [candidate], forecast)
    assert len(delta) == 1
    delta.apply(db)
    again = feature.delta_for_choices(db, [candidate], forecast)
    assert again.is_empty


def test_sort_enumerator_caps_columns(retail_suite, monkeypatch):
    from repro.tuning.enumerators.sort_enum import SortOrderEnumerator

    monkeypatch.setattr("repro.tuning.enumerators.sort_enum.MAX_COLUMNS", 2)
    forecast = make_forecast(retail_suite)
    candidates = SortOrderEnumerator().candidates(
        retail_suite.database, forecast
    )
    per_table: dict[str, int] = {}
    for candidate in candidates:
        per_table[candidate.table] = per_table.get(candidate.table, 0) + 1
    assert all(count <= 2 for count in per_table.values())
    # all sort candidates of one table share an exclusion group
    groups = {c.group for c in candidates if c.table == "orders"}
    assert len(groups) == 1

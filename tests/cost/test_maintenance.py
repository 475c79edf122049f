"""Tests for the adaptive cost-model maintenance plugin (Section V)."""

import numpy as np
import pytest

from repro.cost.maintenance import AdaptiveCostMaintenancePlugin
from repro.errors import PluginError
from repro.workload import Predicate, Query

from tests.conftest import make_small_database


def _run(db, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        db.execute(
            Query(
                "events",
                (Predicate("user", "=", int(rng.integers(0, 100))),),
                aggregate="count",
            )
        )


def test_plugin_calibrates_on_attach():
    db = make_small_database(rows=5_000)
    plugin = AdaptiveCostMaintenancePlugin()
    db.plugin_host.attach(plugin)
    assert plugin.model.is_fitted
    query = Query("events", (Predicate("user", "=", 3),), aggregate="count")
    assert plugin.model.estimate_query_ms(query) > 0


def test_plugin_harvests_new_executions_per_tick():
    db = make_small_database(rows=2_000)
    plugin = AdaptiveCostMaintenancePlugin()
    db.plugin_host.attach(plugin)
    baseline = plugin.observations_harvested
    _run(db, 5, seed=0)
    db.plugin_host.tick(db.clock.now_ms)
    # one observation per template per tick, not one per execution
    assert plugin.observations_harvested == baseline + 1
    db.plugin_host.tick(db.clock.now_ms)
    assert plugin.observations_harvested == baseline + 1  # nothing new


def test_model_adapts_to_configuration_changes(monkeypatch):
    monkeypatch.setattr("repro.cost.learned.REFIT_EVERY", 2)
    db = make_small_database(rows=20_000, chunk_size=4_000)
    plugin = AdaptiveCostMaintenancePlugin()
    db.plugin_host.attach(plugin)
    query = Query("events", (Predicate("user", "=", 7),), aggregate="count")
    actual_before = db.executor.execute(
        query, db.table("events"), probe=True
    ).report.elapsed_ms
    db.create_index("events", ["user"])
    actual_after = db.executor.execute(
        query, db.table("events"), probe=True
    ).report.elapsed_ms
    assert actual_after < actual_before
    # feed post-change observations through the live channel
    for seed in range(10):
        _run(db, 3, seed=seed)
        db.plugin_host.tick(db.clock.now_ms)
    estimate = plugin.model.estimate_query_ms(query)
    # the refreshed model prices the indexed query closer to its new cost
    # than to its old cost
    assert abs(estimate - actual_after) < abs(estimate - actual_before)


def test_plugin_without_calibration(monkeypatch):
    monkeypatch.setattr("repro.cost.maintenance.CALIBRATE_ON_ATTACH", False)
    db = make_small_database(rows=1_000)
    plugin = AdaptiveCostMaintenancePlugin()
    db.plugin_host.attach(plugin)
    assert not plugin.model.is_fitted


def test_model_access_requires_attachment():
    plugin = AdaptiveCostMaintenancePlugin()
    with pytest.raises(PluginError):
        plugin.model


def test_detach_stops_harvesting():
    db = make_small_database(rows=1_000)
    plugin = AdaptiveCostMaintenancePlugin()
    db.plugin_host.attach(plugin)
    db.plugin_host.detach(plugin.name)
    before = plugin.observations_harvested
    _run(db, 3, seed=1)
    plugin.on_tick(0.0)  # direct call after detach: must be a no-op
    assert plugin.observations_harvested == before

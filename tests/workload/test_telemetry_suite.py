"""Tests for the telemetry (IoT) benchmark suite."""

import numpy as np

from repro.workload.benchmarks import build_telemetry_suite, telemetry_rates


def _suite():
    return build_telemetry_suite(rows=20_000, n_sensors=100, n_ticks=2_000)


def test_suite_builds_readings_table():
    suite = _suite()
    db = suite.database
    assert db.catalog.table_names() == ("readings",)
    assert db.table("readings").row_count == 20_000


def test_timestamps_are_append_ordered():
    suite = _suite()
    previous_max = None
    for chunk in suite.database.table("readings").chunks():
        ts = chunk.segment("ts").values()
        assert (np.diff(ts) >= 0).all()
        if previous_max is not None:
            assert ts[0] >= previous_max
        previous_max = ts[-1]


def test_all_families_execute_and_are_distinct():
    suite = _suite()
    rng = np.random.default_rng(0)
    keys = set()
    for family in suite.families.values():
        result = suite.database.execute(family.sample(rng))
        assert result.report.elapsed_ms > 0
        keys.add(family.template_key)
    assert len(keys) == len(suite.families) == 5


def test_rates_cover_all_families():
    suite = _suite()
    assert set(telemetry_rates()) == set(suite.families)


def test_severity_distribution_is_skewed():
    suite = _suite()
    count_ok = suite.database.execute(
        "SELECT COUNT(*) FROM readings WHERE severity = 'ok'"
    ).aggregate_value
    count_critical = suite.database.execute(
        "SELECT COUNT(*) FROM readings WHERE severity = 'critical'"
    ).aggregate_value
    assert count_ok > 50 * max(count_critical, 1)


def test_telemetry_suite_is_tunable():
    """End-to-end sanity: the standard pipeline improves this workload too."""
    from repro.configuration import ConstraintSet, INDEX_MEMORY, ResourceBudget
    from repro.cost import WhatIfOptimizer
    from repro.tuning import IndexSelectionFeature, Tuner
    from tests.conftest import make_forecast

    suite = _suite()
    db = suite.database
    forecast = make_forecast(suite)
    optimizer = WhatIfOptimizer(db)
    before = optimizer.scenario_cost_ms(
        forecast.expected, dict(forecast.sample_queries)
    )
    tuner = Tuner(IndexSelectionFeature(), optimizer)
    tuner.tune(forecast, ConstraintSet([ResourceBudget(INDEX_MEMORY, 2**21)]))
    after = optimizer.scenario_cost_ms(
        forecast.expected, dict(forecast.sample_queries)
    )
    assert after < before

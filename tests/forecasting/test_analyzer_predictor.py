"""Tests for the workload analyzer and the predictor component."""

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue, SeasonalNaive
from repro.forecasting.predictor import WorkloadPredictor
from repro.forecasting.representation import logical_workload

from tests.conftest import make_small_database


def _series(n_templates=3, length=24):
    rng = np.random.default_rng(0)
    return {
        f"q{i}": rng.poisson(10 + 3 * i, length).astype(float)
        for i in range(n_templates)
    }


def test_analyzer_produces_expected_and_worst_case():
    analyzer = WorkloadAnalyzer(NaiveLastValue)
    forecast = analyzer.analyze(_series(), {}, horizon_bins=4, bin_duration_ms=1000)
    assert forecast.scenario_names == ("expected", "worst_case")
    expected = forecast.expected
    worst = forecast.scenario("worst_case")
    for key in expected.frequencies:
        assert worst.frequency(key) >= expected.frequency(key)


def test_analyzer_rejects_empty_input():
    analyzer = WorkloadAnalyzer(NaiveLastValue)
    with pytest.raises(ForecastError):
        analyzer.analyze({}, {}, 4, 1000)
    with pytest.raises(ForecastError):
        analyzer.analyze(_series(), {}, 0, 1000)


def _run_workload(db, n, seed):
    rng = np.random.default_rng(seed)
    from repro.workload import Predicate, Query

    for _ in range(n):
        db.execute(
            Query("events", (Predicate("user", "=", int(rng.integers(0, 100))),),
                  aggregate="count")
        )


def test_predictor_builds_series_from_plan_cache_diffs():
    db = make_small_database(rows=1_000)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    _run_workload(db, 5, 0)
    first = predictor.observe()
    _run_workload(db, 3, 1)
    second = predictor.observe()
    key = next(iter(first))
    assert first[key] == 5.0
    assert second[key] == 3.0
    series = predictor.series()
    np.testing.assert_array_equal(series[key], [5.0, 3.0])
    assert predictor.history_bins == 2


def test_predictor_counts_a_template_recreated_after_eviction(monkeypatch):
    # A x5 | B, C, A x3 through a two-entry plan cache: B and C push A
    # out, so A's entry is recreated and its count restarts below the
    # last snapshot's 5 — all three executions belong to the second bin
    monkeypatch.setattr("repro.dbms.plan_cache.CAPACITY", 2)
    db = make_small_database(rows=1_000)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    _run_workload(db, 5, 0)
    key = next(iter(predictor.observe()))
    db.execute("SELECT COUNT(*) FROM events")
    db.execute("SELECT COUNT(*) FROM events WHERE value < 5")
    assert db.plan_cache.entry(key) is None
    _run_workload(db, 3, 1)
    assert predictor.observe()[key] == 3.0
    np.testing.assert_array_equal(predictor.series()[key], [5.0, 3.0])


def test_predictor_pads_new_templates_with_zeros():
    db = make_small_database(rows=1_000)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    _run_workload(db, 2, 0)
    predictor.observe()
    db.execute("SELECT COUNT(*) FROM events")  # new template
    predictor.observe()
    series = predictor.series()
    new_key = "SELECT COUNT(*) FROM events"
    np.testing.assert_array_equal(series[new_key], [0.0, 1.0])


def test_predictor_forecast_and_samples():
    db = make_small_database(rows=1_000)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(lambda: SeasonalNaive(4)))
    for i in range(5):
        _run_workload(db, 4 + i, i)
        predictor.observe()
    forecast = predictor.forecast(horizon_bins=3)
    assert forecast.expected.total_executions > 0
    assert forecast.sample_queries
    assert predictor.has_enough_history(4)


def test_predictor_requires_observations():
    db = make_small_database(rows=100)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    with pytest.raises(ForecastError):
        predictor.forecast(2)
    with pytest.raises(ForecastError):
        predictor.recent_scenario(2, 2)


def test_predictor_history_trimming(monkeypatch):
    monkeypatch.setattr("repro.forecasting.predictor.MAX_HISTORY_BINS", 3)
    db = make_small_database(rows=200)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(6):
        _run_workload(db, 1, i)
        predictor.observe()
    assert predictor.history_bins == 3


def test_recent_scenario_extrapolates_mean():
    db = make_small_database(rows=500)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(4):
        _run_workload(db, 6, i)
        predictor.observe()
    scenario = predictor.recent_scenario(window_bins=4, horizon_bins=2)
    assert scenario.total_executions == pytest.approx(12.0)


def test_logical_workload_extraction():
    db = make_small_database(rows=500)
    _run_workload(db, 3, 0)
    workload = logical_workload(db.plan_cache)
    assert len(workload) == 1
    logical = next(iter(workload.values()))
    assert logical.execution_count == 3
    assert logical.mean_ms > 0
    assert logical.key == logical.template.key


def test_predictor_parameter_validation():
    db = make_small_database(rows=100)
    analyzer = WorkloadAnalyzer(NaiveLastValue)
    with pytest.raises(ForecastError):
        WorkloadPredictor(db, analyzer, bin_duration_ms=0)

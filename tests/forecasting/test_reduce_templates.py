"""Tests for workload reduction (Section III-A's sampling lever)."""

import pytest

from repro.errors import ForecastError
from repro.forecasting.scenarios import (
    Forecast,
    WorkloadScenario,
    reduce_templates,
)


def _forecast(n_templates=6):
    expected = {f"q{i}": float(10 * (i + 1)) for i in range(n_templates)}
    worst = {key: value * 2 for key, value in expected.items()}
    return Forecast(
        scenarios=(
            WorkloadScenario("expected", 0.7, expected),
            WorkloadScenario("worst_case", 0.3, worst),
        ),
        horizon_bins=4,
        bin_duration_ms=1000.0,
        sample_queries={},
    )


def test_keeps_heaviest_templates():
    reduced = reduce_templates(_forecast(), max_templates=2)
    # q5 (60) and q4 (50) carry the most mass
    assert set(reduced.expected.frequencies) == {"q4", "q5"}


def test_preserves_total_execution_mass():
    original = _forecast()
    reduced = reduce_templates(original, max_templates=3)
    for scenario in original.scenarios:
        assert reduced.scenario(scenario.name).total_executions == (
            pytest.approx(scenario.total_executions)
        )


def test_scenario_outside_kept_set_keeps_its_mass():
    """A scenario whose frequencies all fall on dropped templates must not
    silently end up with zero executions (the old bug)."""
    forecast = Forecast(
        scenarios=(
            WorkloadScenario("expected", 0.7, {"a": 100.0, "b": 90.0, "c": 1.0}),
            WorkloadScenario("night", 0.3, {"c": 50.0}),
        ),
        horizon_bins=4,
        bin_duration_ms=1000.0,
        sample_queries={},
    )
    reduced = reduce_templates(forecast, max_templates=2)
    # a and b carry the most probability-weighted mass; c is dropped
    assert set(reduced.expected.frequencies) == {"a", "b"}
    night = reduced.scenario("night")
    # the night scenario's 50 executions are redistributed, not lost
    assert night.total_executions == pytest.approx(50.0)
    assert set(night.frequencies) == {"a", "b"}
    # redistribution follows the global mass ratio (70 vs 63)
    assert night.frequencies["a"] > night.frequencies["b"] > 0


def test_empty_scenario_stays_empty():
    forecast = Forecast(
        scenarios=(
            WorkloadScenario("expected", 0.5, {"a": 10.0, "b": 5.0, "c": 1.0}),
            WorkloadScenario("idle", 0.5, {}),
        ),
        horizon_bins=4,
        bin_duration_ms=1000.0,
        sample_queries={},
    )
    reduced = reduce_templates(forecast, max_templates=2)
    assert reduced.scenario("idle").total_executions == 0.0


def test_noop_when_already_small():
    original = _forecast(n_templates=2)
    assert reduce_templates(original, max_templates=5) is original


def test_sample_queries_filtered():
    from repro.workload import Query

    original = _forecast()
    queries = {key: Query("t") for key in original.expected.frequencies}
    forecast = Forecast(
        scenarios=original.scenarios,
        horizon_bins=4,
        bin_duration_ms=1000.0,
        sample_queries=queries,
    )
    reduced = reduce_templates(forecast, max_templates=2)
    assert set(reduced.sample_queries) == {"q4", "q5"}


def test_invalid_max_templates():
    with pytest.raises(ForecastError):
        reduce_templates(_forecast(), max_templates=0)


def test_dependence_analyzer_accepts_reduction(retail_suite):
    from repro.configuration import (
        ConstraintSet,
        INDEX_MEMORY,
        ResourceBudget,
    )
    from repro.cost import WhatIfOptimizer
    from repro.ordering import DependenceAnalyzer
    from repro.tuning import CompressionFeature, IndexSelectionFeature, Tuner
    from repro.util.units import MIB
    from tests.conftest import make_forecast

    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(IndexSelectionFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
    ]
    analyzer = DependenceAnalyzer(
        tuners, ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    )
    matrix = analyzer.measure(forecast, max_templates=3)
    assert matrix.w_empty > 0
    assert set(matrix.w_pair) == {
        ("compression", "index_selection"),
        ("index_selection", "compression"),
    }

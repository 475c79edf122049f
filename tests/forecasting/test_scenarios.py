"""Tests for forecast scenarios."""

import pytest

from repro.errors import ForecastError
from repro.forecasting.scenarios import (
    EXPECTED_SCENARIO,
    Forecast,
    WorkloadScenario,
    point_forecast,
)


def _forecast():
    return Forecast(
        scenarios=(
            WorkloadScenario("expected", 0.6, {"q1": 10.0, "q2": 5.0}),
            WorkloadScenario("worst_case", 0.4, {"q1": 20.0, "q2": 5.0}),
        ),
        horizon_bins=4,
        bin_duration_ms=1000.0,
    )


def test_scenario_totals_and_lookup():
    scenario = WorkloadScenario("s", 1.0, {"a": 3.0, "b": 2.0})
    assert scenario.total_executions == 5.0
    assert scenario.frequency("a") == 3.0
    assert scenario.frequency("ghost") == 0.0


def test_scenario_validation():
    with pytest.raises(ForecastError):
        WorkloadScenario("s", 1.5, {})
    with pytest.raises(ForecastError):
        WorkloadScenario("s", 0.5, {"a": -1.0})


def test_forecast_accessors():
    forecast = _forecast()
    assert forecast.expected.name == EXPECTED_SCENARIO
    assert forecast.scenario("worst_case").frequency("q1") == 20.0
    assert forecast.scenario_names == ("expected", "worst_case")


def test_forecast_mean_frequencies():
    mean = _forecast().mean_frequencies()
    assert mean["q1"] == pytest.approx(0.6 * 10 + 0.4 * 20)
    assert mean["q2"] == pytest.approx(5.0)


def test_forecast_validation():
    with pytest.raises(ForecastError):
        Forecast(scenarios=(), horizon_bins=1, bin_duration_ms=1.0)
    with pytest.raises(ForecastError):  # probabilities must sum to 1
        Forecast(
            scenarios=(WorkloadScenario("expected", 0.5, {}),),
            horizon_bins=1,
            bin_duration_ms=1.0,
        )
    with pytest.raises(ForecastError):  # needs an expected scenario
        Forecast(
            scenarios=(WorkloadScenario("other", 1.0, {}),),
            horizon_bins=1,
            bin_duration_ms=1.0,
        )
    with pytest.raises(ForecastError):  # duplicate names
        Forecast(
            scenarios=(
                WorkloadScenario("expected", 0.5, {}),
                WorkloadScenario("expected", 0.5, {}),
            ),
            horizon_bins=1,
            bin_duration_ms=1.0,
        )


def test_unknown_scenario_lookup():
    with pytest.raises(ForecastError):
        _forecast().scenario("ghost")


def test_point_forecast_single_scenario():
    forecast = point_forecast({"q": 7.0}, {})
    assert forecast.expected.frequency("q") == 7.0
    assert len(forecast.scenarios) == 1

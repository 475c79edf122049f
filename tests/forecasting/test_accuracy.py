"""Tests for forecast accuracy metrics and backtesting."""

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecasting.accuracy import backtest, mae, rmse, smape
from repro.forecasting.models import NaiveLastValue, SeasonalNaive


def test_rmse_and_mae():
    actual = np.array([1.0, 2.0, 3.0])
    predicted = np.array([1.0, 2.0, 5.0])
    assert mae(actual, predicted) == pytest.approx(2.0 / 3)
    assert rmse(actual, predicted) == pytest.approx(np.sqrt(4.0 / 3))


def test_perfect_forecast_scores_zero():
    series = np.array([1.0, 2.0])
    assert rmse(series, series) == 0.0
    assert mae(series, series) == 0.0
    assert smape(series, series) == 0.0


def test_smape_handles_zeros():
    assert smape(np.array([0.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_metric_length_mismatch():
    with pytest.raises(ForecastError):
        rmse(np.array([1.0]), np.array([1.0, 2.0]))


def test_backtest_prefers_right_model_on_seasonal_data():
    t = np.arange(96)
    series = 20 + 10 * np.sin(2 * np.pi * t / 24)
    seasonal = backtest(lambda: SeasonalNaive(24), series, horizon=12, folds=4)
    naive = backtest(NaiveLastValue, series, horizon=12, folds=4)
    assert seasonal.rmse < naive.rmse
    assert seasonal.model_name == "seasonal-naive"
    assert seasonal.folds == 4


def test_backtest_rejects_short_series():
    with pytest.raises(ForecastError):
        backtest(NaiveLastValue, np.arange(5, dtype=float), horizon=4, folds=4)


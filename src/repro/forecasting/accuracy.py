"""Forecast error metrics and rolling-origin backtesting (experiment E5)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ForecastError
from repro.forecasting.models.base import ForecastModel


def rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared error."""
    actual, predicted = _check(actual, predicted)
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def mae(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute error."""
    actual, predicted = _check(actual, predicted)
    return float(np.mean(np.abs(actual - predicted)))


def smape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Symmetric MAPE in [0, 2]; safe when actual values hit zero."""
    actual, predicted = _check(actual, predicted)
    denominator = (np.abs(actual) + np.abs(predicted)) / 2.0
    ratio = np.divide(
        np.abs(actual - predicted),
        denominator,
        out=np.zeros_like(denominator),
        where=denominator > 0,
    )
    return float(np.mean(ratio))


def _check(actual: np.ndarray, predicted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size != predicted.size:
        raise ForecastError(
            f"length mismatch: {actual.size} actual vs {predicted.size} predicted"
        )
    if actual.size == 0:
        raise ForecastError("cannot score empty forecasts")
    return actual, predicted


@dataclass(frozen=True)
class BacktestResult:
    """Accuracy of one model over a rolling-origin backtest."""

    model_name: str
    folds: int
    rmse: float
    mae: float
    smape: float


def backtest(
    model_factory: Callable[[], ForecastModel],
    series: np.ndarray,
    horizon: int,
    folds: int = 5,
    min_train: int = 8,
) -> BacktestResult:
    """Rolling-origin evaluation: fit on a growing prefix, score the next
    ``horizon`` values, advance the origin, repeat ``folds`` times."""
    series = np.asarray(series, dtype=float).ravel()
    needed = min_train + horizon + (folds - 1)
    if series.size < needed:
        raise ForecastError(
            f"series of length {series.size} too short for {folds} folds "
            f"(needs {needed})"
        )
    origins = np.linspace(
        min_train, series.size - horizon, folds
    ).astype(int)
    all_rmse, all_mae, all_smape = [], [], []
    name = model_factory().name
    for origin in origins:
        train = series[:origin]
        actual = series[origin : origin + horizon]
        predicted = model_factory().fit_predict(train, horizon)
        all_rmse.append(rmse(actual, predicted))
        all_mae.append(mae(actual, predicted))
        all_smape.append(smape(actual, predicted))
    return BacktestResult(
        model_name=name,
        folds=folds,
        rmse=float(np.mean(all_rmse)),
        mae=float(np.mean(all_mae)),
        smape=float(np.mean(all_smape)),
    )

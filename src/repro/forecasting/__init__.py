"""The Workload Predictor component and its forecasting toolbox."""

from repro.forecasting.accuracy import BacktestResult, backtest, mae, rmse, smape
from repro.forecasting.analyzer import AnalyzerConfig, WorkloadAnalyzer
from repro.forecasting.clustering import (
    TemplateCluster,
    cluster_templates,
    kmeans,
    merge_cluster_series,
)
from repro.forecasting.models import (
    AutoRegressive,
    Ensemble,
    ForecastModel,
    HistoricalMean,
    HoltLinear,
    LinearTrend,
    NaiveLastValue,
    SeasonalNaive,
    SimpleExponentialSmoothing,
)
from repro.forecasting.predictor import WorkloadPredictor
from repro.forecasting.representation import LogicalQuery, logical_workload
from repro.forecasting.scenarios import (
    EXPECTED_SCENARIO,
    WORST_CASE_SCENARIO,
    Forecast,
    WorkloadScenario,
    point_forecast,
    reduce_templates,
)

__all__ = [
    "AnalyzerConfig",
    "AutoRegressive",
    "BacktestResult",
    "EXPECTED_SCENARIO",
    "Ensemble",
    "Forecast",
    "ForecastModel",
    "HistoricalMean",
    "HoltLinear",
    "LinearTrend",
    "LogicalQuery",
    "NaiveLastValue",
    "SeasonalNaive",
    "SimpleExponentialSmoothing",
    "TemplateCluster",
    "WORST_CASE_SCENARIO",
    "WorkloadAnalyzer",
    "WorkloadPredictor",
    "WorkloadScenario",
    "backtest",
    "cluster_templates",
    "kmeans",
    "logical_workload",
    "mae",
    "merge_cluster_series",
    "point_forecast",
    "reduce_templates",
    "rmse",
    "smape",
]

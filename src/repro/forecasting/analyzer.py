"""Step 3 of the prediction pipeline: series → forecast scenarios.

The workload analyzer fits one forecast model per query template (or per
cluster of templates) and assembles a :class:`~repro.forecasting.scenarios.
Forecast`: the *expected* scenario is the point forecast aggregated over
the horizon; the *worst-case* scenario widens every template's frequency by
a multiple of its estimated forecast error; an optional *seasonal-peak*
scenario replays each template's maximum rate of the last season.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ForecastError
from repro.forecasting.accuracy import residual_std
from repro.forecasting.clustering import cluster_templates, merge_cluster_series
from repro.forecasting.models.base import ForecastModel
from repro.forecasting.models.ensemble import ModelFactory
from repro.forecasting.scenarios import (
    EXPECTED_SCENARIO,
    WORST_CASE_SCENARIO,
    Forecast,
    WorkloadScenario,
)
from repro.workload.query import Query, QueryTemplate

SEASONAL_PEAK_SCENARIO = "seasonal_peak"
#: z-score by which the worst case exceeds the expectation (the one-sided
#: 95th percentile of a normal forecast error)
WORST_CASE_Z = 1.645


@dataclass(frozen=True)
class AnalyzerConfig:
    """Tuning parameters of the workload analyzer."""

    #: probability mass of the expected scenario (rest is spread over others)
    expected_probability: float = 0.7
    #: how forecast error is estimated: "diff" (std of first differences,
    #: cheap) or "backtest" (one-step-ahead errors, accurate but slow)
    error_estimate: str = "diff"
    #: add a seasonal-peak scenario replaying last season's maxima
    include_peak_scenario: bool = False
    #: season length in bins (required for the peak scenario)
    period_bins: int | None = None
    #: cluster templates before forecasting when there are more than this
    cluster_above: int | None = None
    max_clusters: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.error_estimate not in ("diff", "backtest"):
            raise ForecastError(
                f"unknown error_estimate {self.error_estimate!r}"
            )
        if not 0.0 < self.expected_probability <= 1.0:
            raise ForecastError("expected_probability must be in (0, 1]")
        if self.include_peak_scenario and not self.period_bins:
            raise ForecastError("peak scenario requires period_bins")


class WorkloadAnalyzer:
    """Turns per-template series into a multi-scenario forecast."""

    def __init__(
        self,
        model_factory: ModelFactory,
        config: AnalyzerConfig | None = None,
    ) -> None:
        self._model_factory = model_factory
        self._config = config or AnalyzerConfig()

    @property
    def config(self) -> AnalyzerConfig:
        return self._config

    def _error_std(self, series: np.ndarray) -> float:
        if self._config.error_estimate == "backtest":
            return residual_std(self._model_factory, series)
        if series.size < 2:
            return 0.0
        return float(np.std(np.diff(series)))

    def _forecast_one(
        self, series: np.ndarray, horizon: int
    ) -> tuple[float, float]:
        """(expected executions over horizon, error std over horizon)."""
        model: ForecastModel = self._model_factory()
        prediction = model.fit_predict(series, horizon)
        expected = float(prediction.sum())
        sigma = self._error_std(series) * float(np.sqrt(horizon))
        return expected, sigma

    def _maybe_clustered_series(
        self,
        series: dict[str, np.ndarray],
        templates: dict[str, QueryTemplate],
    ) -> list[tuple[np.ndarray, dict[str, float]]]:
        """Series units to forecast: either one per template or one per
        cluster with redistribution shares."""
        config = self._config
        if (
            config.cluster_above is not None
            and len(series) > config.cluster_above
            and templates
        ):
            ordered = [templates[key] for key in sorted(series) if key in templates]
            clusters = cluster_templates(
                ordered, config.max_clusters, seed=config.seed
            )
            return [merge_cluster_series(series, c) for c in clusters]
        return [(values, {key: 1.0}) for key, values in series.items()]

    def analyze(
        self,
        series: dict[str, np.ndarray],
        sample_queries: dict[str, Query],
        horizon_bins: int,
        bin_duration_ms: float,
        templates: dict[str, QueryTemplate] | None = None,
    ) -> Forecast:
        """Build the forecast for the next ``horizon_bins`` bins."""
        if not series:
            raise ForecastError("no workload history to analyze")
        if horizon_bins <= 0:
            raise ForecastError("horizon_bins must be positive")
        config = self._config

        expected: dict[str, float] = {}
        worst: dict[str, float] = {}
        peak: dict[str, float] = {}
        units = self._maybe_clustered_series(series, templates or {})
        for unit_series, shares in units:
            unit_expected, unit_sigma = self._forecast_one(
                unit_series, horizon_bins
            )
            unit_worst = unit_expected + WORST_CASE_Z * unit_sigma
            if config.include_peak_scenario:
                period = min(config.period_bins, unit_series.size)
                unit_peak = float(unit_series[-period:].max()) * horizon_bins
                unit_peak = max(unit_peak, unit_expected)
            else:
                unit_peak = 0.0
            for key, share in shares.items():
                expected[key] = share * unit_expected
                worst[key] = share * unit_worst
                if config.include_peak_scenario:
                    peak[key] = share * unit_peak

        scenarios = [
            WorkloadScenario(
                EXPECTED_SCENARIO, config.expected_probability, expected
            )
        ]
        rest = 1.0 - config.expected_probability
        if config.include_peak_scenario:
            scenarios.append(
                WorkloadScenario(WORST_CASE_SCENARIO, rest * 2 / 3, worst)
            )
            scenarios.append(
                WorkloadScenario(SEASONAL_PEAK_SCENARIO, rest / 3, peak)
            )
        elif rest > 0:
            scenarios.append(WorkloadScenario(WORST_CASE_SCENARIO, rest, worst))

        return Forecast(
            scenarios=tuple(scenarios),
            horizon_bins=horizon_bins,
            bin_duration_ms=bin_duration_ms,
            sample_queries={
                key: query
                for key, query in sample_queries.items()
                if key in series
            },
        )

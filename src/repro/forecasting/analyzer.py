"""Step 3 of the prediction pipeline: series → forecast scenarios.

The workload analyzer fits one forecast model per query template (or per
cluster of templates) and assembles a :class:`~repro.forecasting.scenarios.
Forecast`: the *expected* scenario is the point forecast aggregated over
the horizon; the *worst-case* scenario widens every template's frequency by
a multiple of its estimated forecast error (the standard deviation of the
series' first differences).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ForecastError
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

#: probability mass of the expected scenario; the worst case gets the rest
EXPECTED_PROBABILITY = 0.7
#: z-score by which the worst case exceeds the expectation (the one-sided
#: 95th percentile of a normal forecast error)
WORST_CASE_Z = 1.645


@dataclass(frozen=True)
class AnalyzerConfig:
    """Template clustering of the workload analyzer."""

    #: cluster templates before forecasting when there are more than this
    cluster_above: int | None = None
    max_clusters: int = 8


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

    @staticmethod
    def _error_std(series: np.ndarray) -> float:
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
            clusters = cluster_templates(ordered, config.max_clusters)
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
        expected: dict[str, float] = {}
        worst: dict[str, float] = {}
        units = self._maybe_clustered_series(series, templates or {})
        for unit_series, shares in units:
            unit_expected, unit_sigma = self._forecast_one(
                unit_series, horizon_bins
            )
            unit_worst = unit_expected + WORST_CASE_Z * unit_sigma
            for key, share in shares.items():
                expected[key] = share * unit_expected
                worst[key] = share * unit_worst

        scenarios = (
            WorkloadScenario(EXPECTED_SCENARIO, EXPECTED_PROBABILITY, expected),
            WorkloadScenario(
                WORST_CASE_SCENARIO, 1.0 - EXPECTED_PROBABILITY, worst
            ),
        )

        return Forecast(
            scenarios=scenarios,
            horizon_bins=horizon_bins,
            bin_duration_ms=bin_duration_ms,
            sample_queries={
                key: query
                for key, query in sample_queries.items()
                if key in series
            },
        )

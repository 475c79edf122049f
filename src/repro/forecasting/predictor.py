"""The Workload Predictor component (Section II-C).

Wires the three pipeline steps together against a live database:

1. *logical representation* — the plan cache is snapshotted periodically;
   diffs of per-template execution counts become time-binned series
   (no per-query hooks, "no further overhead … during query execution");
2. *query clustering* — optional, delegated to the analyzer;
3. *workload analysis* — one forecast model per series, assembled into a
   multi-scenario :class:`~repro.forecasting.scenarios.Forecast`.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.database import Database
from repro.errors import ForecastError
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.representation import logical_workload
from repro.forecasting.scenarios import Forecast, WorkloadScenario
from repro.workload.query import Query, QueryTemplate

#: bins of per-template history kept; older bins are dropped
MAX_HISTORY_BINS = 512


class WorkloadPredictor:
    """Builds workload history from plan-cache snapshots and forecasts it."""

    def __init__(
        self,
        database: Database,
        analyzer: WorkloadAnalyzer,
        bin_duration_ms: float = 60_000.0,
    ) -> None:
        if bin_duration_ms <= 0:
            raise ForecastError("bin_duration_ms must be positive")
        self._database = database
        self._analyzer = analyzer
        self._bin_duration_ms = float(bin_duration_ms)
        self._history: dict[str, list[float]] = {}
        self._bin_count = 0
        self._last_counts: dict[str, int] = {}

    @property
    def bin_duration_ms(self) -> float:
        return self._bin_duration_ms

    @property
    def history_bins(self) -> int:
        return self._bin_count

    @property
    def analyzer(self) -> WorkloadAnalyzer:
        return self._analyzer

    # ------------------------------------------------------------------
    # history construction

    def observe(self) -> dict[str, float]:
        """Close one observation bin: diff the plan cache against the last
        snapshot and append per-template execution counts. Returns the bin."""
        snapshot = self._database.plan_cache.snapshot()
        bin_counts: dict[str, float] = {}
        for key, (count, _total_ms) in snapshot.items():
            previous = self._last_counts.get(key, 0)
            # a count below the last snapshot's means the entry was
            # evicted from the plan cache and recreated since: its
            # executions all belong to this bin
            delta = count if count < previous else count - previous
            bin_counts[key] = float(delta)
            if key not in self._history:
                self._history[key] = [0.0] * self._bin_count
        self._last_counts = {
            key: count for key, (count, _ms) in snapshot.items()
        }
        for key, values in self._history.items():
            values.append(bin_counts.get(key, 0.0))
        self._bin_count += 1
        if self._bin_count > MAX_HISTORY_BINS:
            overflow = self._bin_count - MAX_HISTORY_BINS
            for values in self._history.values():
                del values[:overflow]
            self._bin_count = MAX_HISTORY_BINS
        return bin_counts

    def series(self) -> dict[str, np.ndarray]:
        """Per-template execution counts per bin, aligned across templates."""
        return {
            key: np.array(values, dtype=float)
            for key, values in self._history.items()
        }

    def sample_queries(self) -> dict[str, Query]:
        return {
            key: logical.sample_query
            for key, logical in logical_workload(self._database.plan_cache).items()
        }

    def templates(self) -> dict[str, QueryTemplate]:
        return {
            key: logical.template
            for key, logical in logical_workload(self._database.plan_cache).items()
        }

    # ------------------------------------------------------------------
    # forecasting

    def has_enough_history(self, min_bins: int = 4) -> bool:
        return self._bin_count >= min_bins and bool(self._history)

    def forecast(self, horizon_bins: int) -> Forecast:
        """Forecast the next ``horizon_bins`` observation bins."""
        if not self.has_enough_history(min_bins=1):
            raise ForecastError("no observations yet; call observe() first")
        return self._analyzer.analyze(
            self.series(),
            self.sample_queries(),
            horizon_bins,
            self._bin_duration_ms,
            templates=self.templates(),
        )

    def recent_scenario(
        self, window_bins: int, horizon_bins: int, name: str = "recent"
    ) -> WorkloadScenario:
        """The recent workload extrapolated over a horizon — the organizer
        compares this against the forecast to detect significant change."""
        if self._bin_count == 0:
            raise ForecastError("no observations yet")
        window = min(window_bins, self._bin_count)
        frequencies = {
            key: float(np.mean(values[-window:])) * horizon_bins
            for key, values in self._history.items()
        }
        return WorkloadScenario(name, 1.0, frequencies)

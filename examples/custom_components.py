"""Extensibility: plugging user-defined components into the framework.

The paper's central engineering claim is the separation of concerns —
"components can be exchanged effortlessly". This demo implements three
custom components against the public interfaces and runs them unmodified
inside the standard pipeline:

1. a forecast model (median of the trailing window);
2. a selector (take the top-k by expected desirability, ignore budgets);
3. a database plugin that logs every reconfiguration it observes.

Run:  python examples/custom_components.py
"""

from __future__ import annotations

import numpy as np

from repro import ConstraintSet, Database, ResourceBudget, Tuner, WhatIfOptimizer
from repro.configuration import INDEX_MEMORY
from repro.core.component import default_registry
from repro.dbms.plugin import Plugin
from repro.forecasting import WorkloadAnalyzer, WorkloadPredictor
from repro.forecasting.models.base import ForecastModel
from repro.tuning import IndexSelectionFeature
from repro.tuning.selectors.base import Selector
from repro.util.units import MIB
from repro.workload import build_retail_suite


class TrailingMedian(ForecastModel):
    """Forecasts the median of the last ``window`` observations."""

    name = "trailing-median"

    def __init__(self, window: int = 12) -> None:
        super().__init__()
        self._window = window

    def _fit(self, series: np.ndarray) -> None:
        self._median = float(np.median(series[-self._window:]))

    def _predict(self, horizon: int) -> np.ndarray:
        return np.full(horizon, self._median)


class TopKSelector(Selector):
    """Takes the k best-scoring candidates with positive score.

    Deliberately simple — it exists to show that anything implementing
    :class:`Selector` slots into the tuner.
    """

    name = "top-k"

    def __init__(self, k: int = 3) -> None:
        self._k = k

    def select(self, assessments, budgets, score):
        del budgets  # this toy selector ignores budgets
        ranked = sorted(assessments, key=score, reverse=True)
        return [a for a in ranked[: self._k] if score(a) > 0]


class ReconfigurationLogger(Plugin):
    """Watches the database's reconfiguration counter from the outside."""

    def __init__(self) -> None:
        self._db: Database | None = None
        self._seen = 0
        self.log: list[str] = []

    @property
    def name(self) -> str:
        return "reconfiguration-logger"

    def on_attach(self, database: Database) -> None:
        self._db = database
        self._seen = database.counters.reconfigurations

    def on_tick(self, now_ms: float) -> None:
        current = self._db.counters.reconfigurations
        if current > self._seen:
            self.log.append(
                f"[{now_ms:9.1f} ms] observed {current - self._seen} "
                "reconfiguration(s)"
            )
            self._seen = current


def main() -> None:
    suite = build_retail_suite(orders_rows=30_000, inventory_rows=8_000)
    db = suite.database

    watcher = ReconfigurationLogger()
    db.plugin_host.attach(watcher)

    # custom components can also live in the registry, next to built-ins
    registry = default_registry()
    registry.register("forecast_model", "trailing-median", TrailingMedian)
    registry.register("selector", "top-k", TopKSelector)
    print("registered forecast models:", registry.names("forecast_model"))
    print("registered selectors:      ", registry.names("selector"))

    # the custom model drives a real predictor
    analyzer = WorkloadAnalyzer(
        lambda: registry.create("forecast_model", "trailing-median")
    )
    predictor = WorkloadPredictor(db, analyzer, bin_duration_ms=60_000)
    for i in range(4):
        for query in suite.mix.sample_queries(30, seed=40 + i):
            db.execute(query)
        predictor.observe()
        db.plugin_host.tick(db.clock.now_ms)
    forecast = predictor.forecast(horizon_bins=4)
    print(f"\nforecast covers {len(forecast.expected.frequencies)} templates, "
          f"{forecast.expected.total_executions:.0f} expected executions")

    # the custom selector drives a real tuner
    tuner = Tuner(
        IndexSelectionFeature(),
        WhatIfOptimizer(db),
        selector=registry.create("selector", "top-k", k=3),
    )
    result, report = tuner.tune(
        forecast, ConstraintSet([ResourceBudget(INDEX_MEMORY, 8 * MIB)])
    )
    print(f"\ntop-k selector chose {len(result.chosen)} indexes:")
    for assessment in result.chosen:
        print("   ", assessment.candidate.describe())

    db.plugin_host.tick(db.clock.now_ms)
    print("\nwhat the logging plugin saw:")
    for line in watcher.log:
        print("   ", line)


if __name__ == "__main__":
    main()

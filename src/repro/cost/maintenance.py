"""Adaptive cost-model maintenance (Section V future work, implemented).

"We currently work on an approach to adaptive cost estimation where costs
for the processing of every operation are logged during database operation.
Subsequently, this data is used to generate updated accurate cost models
from time to time."

:class:`AdaptiveCostMaintenancePlugin` attaches to a database, runs the
startup calibration suite once, and on every tick harvests new executions
from the plan cache (snapshot diffs — the same zero-overhead channel the
workload predictor uses) into its :class:`~repro.cost.learned.
LearnedCostModel`, refitting periodically. The maintained model can be
handed to estimator-backed assessors for fast (non-measuring) tuning runs.
"""

from __future__ import annotations

from repro.cost.calibration import run_startup_calibration
from repro.cost.learned import LearnedCostModel
from repro.dbms.database import Database
from repro.dbms.plugin import Plugin
from repro.errors import PluginError

#: run the startup calibration suite when the plugin attaches
CALIBRATE_ON_ATTACH = True


class AdaptiveCostMaintenancePlugin(Plugin):
    """Keeps a learned cost model trained on live executions."""

    def __init__(self) -> None:
        self._db: Database | None = None
        self._model: LearnedCostModel | None = None
        self._last_counts: dict[str, int] = {}
        self.observations_harvested = 0

    @property
    def name(self) -> str:
        return "adaptive-cost-maintenance"

    @property
    def model(self) -> LearnedCostModel:
        if self._model is None:
            raise PluginError("plugin is not attached to a database")
        return self._model

    def on_attach(self, database: Database) -> None:
        self._db = database
        self._model = LearnedCostModel(database)
        if CALIBRATE_ON_ATTACH:
            run_startup_calibration(database, self._model)
        self._last_counts = {
            key: count
            for key, (count, _ms) in database.plan_cache.snapshot().items()
        }

    def on_detach(self) -> None:
        self._db = None

    def on_tick(self, now_ms: float) -> None:
        """Harvest executions that happened since the last tick.

        The plan cache stores per-template aggregates, so per-execution
        costs are approximated by the template's latest execution time —
        the logging granularity the paper's plan-cache channel offers.
        """
        del now_ms
        if self._db is None or self._model is None:
            return
        for entry in self._db.plan_cache.entries():
            key = entry.template.key
            previous = self._last_counts.get(key, 0)
            new_executions = entry.execution_count - previous
            if new_executions <= 0:
                continue
            self._last_counts[key] = entry.execution_count
            # one observation per template per tick keeps the training set
            # balanced across templates regardless of their frequency
            self._model.observe(entry.sample_query, entry.last_ms)
            self.observations_harvested += 1

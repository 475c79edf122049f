"""The cost-model assessor: desirability via what-if cost estimation.

For every candidate the assessor hypothetically applies it (on top of the
feature's reset baseline), re-prices each affected query template, and
reports per-scenario benefit, measured permanent resource deltas, and the
estimated one-time reconfiguration cost. The accuracy/runtime trade-off is
chosen through the wrapped :class:`~repro.cost.what_if.WhatIfOptimizer`:
probe-mode measured execution (accurate, slower) or an analytic estimator
(fast, approximate).
"""

from __future__ import annotations

from repro.configuration.constraints import DRAM_BYTES, INDEX_MEMORY, TOTAL_MEMORY
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.dbms.knobs import BUFFER_POOL_KNOB
from repro.dbms.storage_tiers import StorageTier
from repro.forecasting.scenarios import Forecast
from repro.tuning.assessment import Assessment, scenario_benefits
from repro.tuning.assessors.base import Assessor
from repro.tuning.candidate import (
    Candidate,
    EncodingCandidate,
    IndexCandidate,
    PlacementCandidate,
)


def _memory_snapshot(db: Database) -> dict[str, float]:
    # one walk over the chunks for what db.index_bytes(), db.memory_bytes()
    # and db.tier_usage()[DRAM] would each walk them for: this runs twice
    # per assessed candidate
    index = total = dram = 0
    for table in db.catalog.tables():
        for chunk in table.chunks():
            chunk_index = chunk.index_bytes()
            chunk_total = chunk.data_bytes() + chunk_index
            index += chunk_index
            total += chunk_total
            if chunk.tier is StorageTier.DRAM:
                dram += chunk_total
    return {
        INDEX_MEMORY: float(index),
        TOTAL_MEMORY: float(total),
        DRAM_BYTES: float(dram) + db.knobs.get(BUFFER_POOL_KNOB),
    }


def _affected_tables(candidate: Candidate) -> set[str] | None:
    """Tables whose query costs the candidate can change; None = all."""
    if isinstance(candidate, (IndexCandidate, EncodingCandidate)):
        return {candidate.table}
    if isinstance(candidate, PlacementCandidate):
        return {candidate.table}
    return None


class CostModelAssessor(Assessor):
    """Prices candidates with a what-if optimizer."""

    supports_reassessment = True

    def __init__(self, optimizer: WhatIfOptimizer) -> None:
        self._optimizer = optimizer
        # measured probe execution is near-exact; analytic models less so
        self._confidence = 0.95 if optimizer.is_measured else 0.6

    def _template_costs(
        self, forecast: Forecast, tables: set[str] | None
    ) -> dict[str, float]:
        keys = []
        queries = []
        for key, query in forecast.sample_queries.items():
            if tables is not None and query.table not in tables:
                continue
            keys.append(key)
            queries.append(query)
        # batched pricing: one pass of cache lookups for the whole
        # template set
        return dict(zip(keys, self._optimizer.batch_query_costs(queries)))

    def assess(
        self,
        candidates: list[Candidate],
        db: Database,
        forecast: Forecast,
        reset_delta: ConfigurationDelta | None = None,
    ) -> list[Assessment]:
        # One-time costs reflect application from the *current* state.
        one_time = [
            ConfigurationDelta(c.actions()).estimate_cost_ms(db)
            for c in candidates
        ]
        scenario_names = forecast.scenario_names
        assessments: list[Assessment] = []

        def run() -> None:
            baseline_costs = self._template_costs(forecast, None)
            baseline_memory = _memory_snapshot(db)
            for candidate, apply_cost in zip(candidates, one_time):
                delta = ConfigurationDelta(candidate.actions())
                tables = _affected_tables(candidate)
                with self._optimizer.hypothetical(delta):
                    new_costs = dict(baseline_costs)
                    new_costs.update(self._template_costs(forecast, tables))
                    new_memory = _memory_snapshot(db)
                desirability = scenario_benefits(
                    [forecast.scenario(name) for name in scenario_names],
                    baseline_costs,
                    new_costs,
                )
                permanent = {
                    resource: new_memory[resource] - baseline_memory[resource]
                    for resource in baseline_memory
                }
                assessments.append(
                    Assessment(
                        candidate=candidate,
                        desirability=desirability,
                        confidence=self._confidence,
                        permanent_costs=permanent,
                        one_time_cost_ms=apply_cost,
                    )
                )

        if reset_delta is not None and not reset_delta.is_empty:
            with self._optimizer.hypothetical(reset_delta):
                run()
        else:
            run()
        return assessments

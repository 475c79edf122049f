"""Anticipating assessor for sort-order candidates.

Sorting a chunk changes nothing by itself — scanning an unencoded segment
costs the same in any row order — so a purely myopic assessment would
reject every sort and the joint sort+run-length win could never be
discovered by recursive single-feature tuning, in any order.

This assessor therefore prices a sort candidate by its *enabling* benefit:
with the sort hypothetically applied, it tries every supported encoding on
the sorted column and reports the best achievable workload cost. The
benefit is delivered only if a later compression run actually picks that
encoding, so the confidence is reduced accordingly — precisely the kind of
cross-feature anticipation the paper's dependence discussion (Section III)
motivates.
"""

from __future__ import annotations

from repro.configuration.actions import SetEncodingAction
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.dbms.segments import supported_encodings
from repro.errors import TuningError
from repro.forecasting.scenarios import Forecast
from repro.tuning.assessment import Assessment, scenario_benefits
from repro.tuning.assessors.base import Assessor
from repro.tuning.candidate import Candidate, SortOrderCandidate

#: below the measuring assessor's 0.95: the benefit depends on a later
#: compression run realising it
CONFIDENCE = 0.7


class SortBenefitAssessor(Assessor):
    """Measures each sort candidate at its best follow-up encoding."""

    supports_reassessment = False

    def __init__(self, optimizer: WhatIfOptimizer) -> None:
        self._optimizer = optimizer

    def _template_costs(self, forecast: Forecast, table: str) -> dict[str, float]:
        keys = []
        queries = []
        for key, query in forecast.sample_queries.items():
            if query.table == table:
                keys.append(key)
                queries.append(query)
        # batched pricing: one pass of cache lookups
        return dict(zip(keys, self._optimizer.batch_query_costs(queries)))

    def assess(
        self,
        candidates: list[Candidate],
        db: Database,
        forecast: Forecast,
        reset_delta: ConfigurationDelta | None = None,
    ) -> list[Assessment]:
        del reset_delta  # sort order has no reset baseline (incremental)
        for candidate in candidates:
            if not isinstance(candidate, SortOrderCandidate):
                raise TuningError(
                    "SortBenefitAssessor only assesses sort-order "
                    f"candidates, got {candidate.describe()}"
                )
        assessments: list[Assessment] = []
        baseline_cache: dict[str, dict[str, float]] = {}
        for candidate in candidates:
            table = db.table(candidate.table)
            if candidate.table not in baseline_cache:
                baseline_cache[candidate.table] = self._template_costs(
                    forecast, candidate.table
                )
            baseline = baseline_cache[candidate.table]
            delta = ConfigurationDelta(candidate.actions())
            one_time = delta.estimate_cost_ms(db)
            data_type = table.schema.data_type(candidate.column)

            best_costs: dict[str, float] | None = None
            with self._optimizer.hypothetical(delta):
                for encoding in supported_encodings(data_type):
                    encode = ConfigurationDelta(
                        [
                            SetEncodingAction(
                                candidate.table,
                                candidate.column,
                                encoding,
                                candidate.chunk_ids,
                            )
                        ]
                    )
                    with self._optimizer.hypothetical(encode):
                        costs = self._template_costs(forecast, candidate.table)
                    total = sum(costs.values())
                    if best_costs is None or total < sum(best_costs.values()):
                        best_costs = costs
            assert best_costs is not None

            desirability = scenario_benefits(
                forecast.scenarios, baseline, best_costs
            )
            assessments.append(
                Assessment(
                    candidate=candidate,
                    desirability=desirability,
                    confidence=CONFIDENCE,
                    permanent_costs={},  # sorting occupies no extra memory
                    one_time_cost_ms=one_time,
                )
            )
        return assessments

"""The sort-order feature tuner.

Chooses a physical intra-chunk sort column per workload table. Selection is
*incremental* rather than selection-from-scratch: a chunk's original ingest
order is not recoverable from a configuration instance, so the reset delta
is empty and candidates are assessed against the current order. The main
payoff of sorting arrives through the compression feature (run-length
segments collapse on sorted data) — which is exactly why the ordering LP
consistently schedules ``sort_order`` before ``compression``.
"""

from __future__ import annotations

from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.forecasting.scenarios import Forecast
from repro.tuning.assessors.base import Assessor
from repro.tuning.assessors.sort_benefit import SortBenefitAssessor
from repro.tuning.candidate import Candidate, SortOrderCandidate
from repro.tuning.enumerators.sort_enum import SortOrderEnumerator
from repro.tuning.features.base import FeatureTuner


class SortOrderFeature(FeatureTuner):
    """Per-table physical sort order selection."""

    name = "sort_order"

    def make_enumerator(self) -> SortOrderEnumerator:
        return SortOrderEnumerator()

    def make_assessor(self, optimizer: WhatIfOptimizer) -> Assessor:
        # sorting pays off *through* later compression; the anticipating
        # assessor prices each sort at its best follow-up encoding
        return SortBenefitAssessor(optimizer)

    def reset_delta(self, db: Database, forecast: Forecast) -> ConfigurationDelta:
        # ingest order cannot be restored from an instance; assess
        # incrementally against the current order
        del db, forecast
        return ConfigurationDelta([])

    def delta_for_choices(
        self,
        db: Database,
        chosen: list[Candidate],
        forecast: Forecast,
    ) -> ConfigurationDelta:
        del forecast
        actions = []
        for candidate in chosen:
            if not isinstance(candidate, SortOrderCandidate):
                continue
            table = db.table(candidate.table)
            chunks = (
                table.chunks()
                if candidate.chunk_ids is None
                else [table.chunk(cid) for cid in candidate.chunk_ids]
            )
            if any(c.sort_column != candidate.column for c in chunks):
                actions.extend(candidate.actions())
        return ConfigurationDelta(actions)

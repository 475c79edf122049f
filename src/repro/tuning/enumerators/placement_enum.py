"""Data placement candidate enumeration.

One required exclusion group per chunk, one candidate per storage tier:
the selector assigns every chunk of the workload tables to exactly one
tier, trading DRAM budget against access latency.
"""

from __future__ import annotations

from repro.dbms.database import Database
from repro.dbms.storage_tiers import StorageTier
from repro.forecasting.scenarios import Forecast
from repro.tuning.candidate import Candidate, PlacementCandidate
from repro.tuning.enumerators.base import Enumerator, workload_tables


class PlacementEnumerator(Enumerator):
    """Chunk × tier alternatives as required exclusion groups."""

    def candidates(self, db: Database, forecast: Forecast) -> list[Candidate]:
        candidates: list[Candidate] = []
        for table_name in sorted(workload_tables(forecast)):
            if not db.catalog.has_table(table_name):
                continue
            for chunk in db.table(table_name).chunks():
                for tier in StorageTier:
                    candidates.append(
                        PlacementCandidate(table_name, chunk.chunk_id, tier)
                    )
        return candidates

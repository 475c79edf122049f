"""The data-placement (tiering) feature tuner."""

from __future__ import annotations

from repro.configuration.actions import MoveChunkAction
from repro.configuration.constraints import DRAM_BYTES, ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.dbms.storage_tiers import StorageTier
from repro.forecasting.scenarios import Forecast
from repro.tuning.candidate import Candidate, PlacementCandidate
from repro.tuning.enumerators.base import workload_tables
from repro.tuning.enumerators.placement_enum import PlacementEnumerator
from repro.tuning.features.base import FeatureTuner


class DataPlacementFeature(FeatureTuner):
    """Assigns every chunk of the workload tables to a storage tier."""

    name = "data_placement"

    def make_enumerator(self) -> PlacementEnumerator:
        return PlacementEnumerator()

    def reset_delta(self, db: Database, forecast: Forecast) -> ConfigurationDelta:
        actions = []
        for table_name in sorted(workload_tables(forecast)):
            if not db.catalog.has_table(table_name):
                continue
            for chunk in db.table(table_name).chunks():
                if chunk.tier is not StorageTier.DRAM:
                    actions.append(
                        MoveChunkAction(
                            table_name, chunk.chunk_id, StorageTier.DRAM
                        )
                    )
        return ConfigurationDelta(actions)

    def delta_for_choices(
        self,
        db: Database,
        chosen: list[Candidate],
        forecast: Forecast,
    ) -> ConfigurationDelta:
        del forecast
        actions = []
        for candidate in chosen:
            if not isinstance(candidate, PlacementCandidate):
                continue
            chunk = db.table(candidate.table).chunk(candidate.chunk_id)
            if chunk.tier is not candidate.tier:
                actions.extend(candidate.actions())
        return ConfigurationDelta(actions)

    def budgets(
        self, db: Database, constraints: ConstraintSet, forecast: Forecast
    ) -> dict[str, float]:
        limit = constraints.effective_budget(DRAM_BYTES)
        if limit is None:
            return {}
        # Candidates are measured against the all-DRAM reset baseline:
        # compute what chunk-data DRAM usage would be there, and hand the
        # selector the remaining headroom (usually negative, forcing
        # evictions). The DRAM budget governs chunk data; the buffer pool's
        # reservation is the buffer-pool feature's own lever and is not
        # charged here.
        scope_tables = workload_tables(forecast)
        reset_usage = float(db.tier_usage()[StorageTier.DRAM])
        for table_name in scope_tables:
            if not db.catalog.has_table(table_name):
                continue
            for chunk in db.table(table_name).chunks():
                if chunk.tier is not StorageTier.DRAM:
                    reset_usage += chunk.memory_bytes()
        return {DRAM_BYTES: limit - reset_usage}

"""The index-selection feature tuner."""

from __future__ import annotations

from repro.configuration.actions import CreateIndexAction, DropIndexAction
from repro.configuration.config import ChunkIndexSpec
from repro.configuration.constraints import INDEX_MEMORY, ConstraintSet
from repro.configuration.delta import ConfigurationDelta, group_index_actions
from repro.dbms.database import Database
from repro.forecasting.scenarios import Forecast
from repro.tuning.candidate import Candidate, IndexCandidate
from repro.tuning.enumerators.base import workload_tables
from repro.tuning.enumerators.index_enum import IndexEnumerator
from repro.tuning.features.base import FeatureTuner


def _expand_specs(
    db: Database, candidates: list[IndexCandidate]
) -> set[ChunkIndexSpec]:
    """Expand candidates to per-chunk index specs."""
    specs: set[ChunkIndexSpec] = set()
    for candidate in candidates:
        table = db.table(candidate.table)
        chunk_ids = (
            table.chunk_ids()
            if candidate.chunk_ids is None
            else candidate.chunk_ids
        )
        for chunk_id in chunk_ids:
            specs.add(
                ChunkIndexSpec(candidate.table, candidate.columns, chunk_id)
            )
    return specs


def _current_specs(db: Database, tables: set[str]) -> set[ChunkIndexSpec]:
    specs: set[ChunkIndexSpec] = set()
    for table_name in tables:
        if not db.catalog.has_table(table_name):
            continue
        for chunk in db.table(table_name).chunks():
            for key in chunk.index_keys():
                specs.add(ChunkIndexSpec(table_name, key, chunk.chunk_id))
    return specs


class IndexSelectionFeature(FeatureTuner):
    """Selects multi-attribute chunk indexes under a memory budget."""

    name = "index_selection"

    def __init__(self, max_width: int = 2, per_chunk: bool = False) -> None:
        self._max_width = max_width
        self._per_chunk = per_chunk

    def make_enumerator(self) -> IndexEnumerator:
        return IndexEnumerator(
            max_width=self._max_width, per_chunk=self._per_chunk
        )

    def reset_delta(self, db: Database, forecast: Forecast) -> ConfigurationDelta:
        specs = _current_specs(db, workload_tables(forecast))
        return ConfigurationDelta(group_index_actions(specs, DropIndexAction))

    def delta_for_choices(
        self,
        db: Database,
        chosen: list[Candidate],
        forecast: Forecast,
    ) -> ConfigurationDelta:
        index_choices = [c for c in chosen if isinstance(c, IndexCandidate)]
        desired = _expand_specs(db, index_choices)
        current = _current_specs(db, workload_tables(forecast))
        actions = group_index_actions(current - desired, DropIndexAction)
        actions.extend(group_index_actions(desired - current, CreateIndexAction))
        return ConfigurationDelta(actions)

    def budgets(
        self, db: Database, constraints: ConstraintSet, forecast: Forecast
    ) -> dict[str, float]:
        limit = constraints.effective_budget(INDEX_MEMORY)
        if limit is None:
            return {}
        # Candidates are measured from the feature-reset baseline (no
        # indexes on workload tables); indexes on *other* tables still count
        # against the system-wide budget.
        scope_tables = workload_tables(forecast)
        outside = sum(
            t.index_bytes()
            for t in db.catalog.tables()
            if t.name not in scope_tables
        )
        return {INDEX_MEMORY: limit - outside}

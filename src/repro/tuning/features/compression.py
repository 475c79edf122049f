"""The compression (encoding selection) feature tuner."""

from __future__ import annotations

from repro.configuration.actions import SetEncodingAction
from repro.configuration.constraints import TOTAL_MEMORY, ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.dbms.segments import EncodingType
from repro.forecasting.scenarios import Forecast
from repro.tuning.candidate import Candidate, EncodingCandidate
from repro.tuning.enumerators.encoding_enum import EncodingEnumerator
from repro.tuning.features.base import FeatureTuner


def _differs(db: Database, candidate: EncodingCandidate) -> bool:
    """Whether applying the candidate would change any chunk."""
    table = db.table(candidate.table)
    chunks = (
        table.chunks()
        if candidate.chunk_ids is None
        else [table.chunk(cid) for cid in candidate.chunk_ids]
    )
    return any(
        chunk.encoding_of(candidate.column) is not candidate.encoding
        for chunk in chunks
    )


class CompressionFeature(FeatureTuner):
    """Chooses a segment encoding per workload-relevant column."""

    name = "compression"

    def make_enumerator(self) -> EncodingEnumerator:
        return EncodingEnumerator()

    def reset_delta(self, db: Database, forecast: Forecast) -> ConfigurationDelta:
        actions = []
        for table_name, column in self.make_enumerator().relevant_columns(
            db, forecast
        ):
            if not db.catalog.has_table(table_name):
                continue
            if not db.table(table_name).schema.has_column(column):
                continue
            candidate = EncodingCandidate(
                table_name, column, EncodingType.UNENCODED, None
            )
            if _differs(db, candidate):
                actions.append(
                    SetEncodingAction(
                        table_name, column, EncodingType.UNENCODED, None
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
            if not isinstance(candidate, EncodingCandidate):
                continue
            if _differs(db, candidate):
                actions.extend(candidate.actions())
        return ConfigurationDelta(actions)

    def budgets(
        self, db: Database, constraints: ConstraintSet, forecast: Forecast
    ) -> dict[str, float]:
        """Encodings usually *save* memory; a TOTAL_MEMORY budget (if set)
        binds the selection's memory delta relative to the all-unencoded
        baseline of the enumerated columns."""
        del db, forecast
        limit = constraints.effective_budget(TOTAL_MEMORY)
        if limit is None:
            return {}
        # Assessors report per-candidate deltas vs the reset baseline; a
        # caller setting TOTAL_MEMORY is expected to pass the *delta*
        # allowance (how many bytes above the unencoded baseline are
        # acceptable — usually 0 or negative to force compression).
        return {TOTAL_MEMORY: limit}

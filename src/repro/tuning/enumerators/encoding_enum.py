"""Encoding candidate enumeration.

For every workload-relevant column, one candidate per supported encoding
(including UNENCODED, the reset state) forms a required exclusion group:
the selector must pick exactly one encoding per column.
"""

from __future__ import annotations

from repro.dbms.database import Database
from repro.dbms.segments import supported_encodings
from repro.forecasting.scenarios import Forecast
from repro.tuning.candidate import Candidate, EncodingCandidate
from repro.tuning.enumerators.base import (
    Enumerator,
    predicate_column_usage,
    workload_tables,
)

#: enumerate every column of the workload tables, not just predicate and
#: aggregate columns (more memory wins, more work)
ALL_COLUMNS = False


class EncodingEnumerator(Enumerator):
    """Per-column encoding alternatives as required exclusion groups."""

    def relevant_columns(
        self, db: Database, forecast: Forecast
    ) -> list[tuple[str, str]]:
        tables = workload_tables(forecast)
        if ALL_COLUMNS:
            columns = []
            for table_name in sorted(tables):
                if not db.catalog.has_table(table_name):
                    continue
                for column in db.table(table_name).schema.column_names:
                    columns.append((table_name, column))
            return columns
        usage = predicate_column_usage(forecast)
        columns = sorted(usage)
        # aggregate input columns are decoded in bulk, so they matter too
        for query in forecast.sample_queries.values():
            if query.aggregate_column is not None:
                slot = (query.table, query.aggregate_column)
                if slot not in columns:
                    columns.append(slot)
        return columns

    def candidates(self, db: Database, forecast: Forecast) -> list[Candidate]:
        candidates: list[Candidate] = []
        for table_name, column in self.relevant_columns(db, forecast):
            if not db.catalog.has_table(table_name):
                continue
            table = db.table(table_name)
            if not table.schema.has_column(column):
                continue
            data_type = table.schema.data_type(column)
            for encoding in supported_encodings(data_type):
                candidates.append(
                    EncodingCandidate(table_name, column, encoding, None)
                )
        return candidates

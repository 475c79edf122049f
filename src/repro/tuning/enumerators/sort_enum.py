"""Sort-order candidate enumeration.

One candidate per (workload table, predicate column): sorting by a column
groups equal values, which makes run-length encoding effective on it and
shrinks dictionary/index structures — benefits that mostly materialise
*through* the compression feature, making sort order the strongest
dependence generator in the feature set.
"""

from __future__ import annotations

from repro.dbms.database import Database
from repro.forecasting.scenarios import Forecast
from repro.tuning.candidate import Candidate, SortOrderCandidate
from repro.tuning.enumerators.base import Enumerator, predicate_column_usage

#: predicate columns per table, most frequent first, that get a candidate
MAX_COLUMNS = 4


class SortOrderEnumerator(Enumerator):
    """Sort candidates from the workload's predicate columns."""

    def candidates(self, db: Database, forecast: Forecast) -> list[Candidate]:
        usage = predicate_column_usage(forecast)
        by_table: dict[str, list[tuple[float, str]]] = {}
        for (table, column), stats in usage.items():
            by_table.setdefault(table, []).append(
                (stats.total_frequency, column)
            )
        candidates: list[Candidate] = []
        for table_name in sorted(by_table):
            if not db.catalog.has_table(table_name):
                continue
            table = db.table(table_name)
            ranked = sorted(by_table[table_name], reverse=True)
            columns = [column for _freq, column in ranked[:MAX_COLUMNS]]
            for column in sorted(columns):
                if table.schema.has_column(column):
                    candidates.append(
                        SortOrderCandidate(table_name, column, None)
                    )
        return candidates

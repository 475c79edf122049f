"""The query plan cache.

Real systems keep plan caches for prepared statements and to avoid repeated
optimization; the framework piggybacks on them as its *only* source of
workload history: "By relying on the query plan cache, no further overhead
is added during query execution time" (Section II-C). Entries aggregate, per
query template, the execution count and cost that the workload predictor
turns into forecasts.

The predictor builds time series by periodically *snapshotting* the cache
and diffing counts — the cache itself stores only aggregates, like its
real-world counterparts.

Not to be confused with the planner's compiled-plan cache
(:mod:`repro.plan.planner`), which memoises *how to execute* a query;
this cache records *execution history* per template for the workload
predictor. Both sit on :class:`~repro.util.lru.BoundedLRU`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.lru import BoundedLRU
from repro.workload.query import Query, QueryTemplate

#: query templates whose execution history is kept
CAPACITY = 1024


@dataclass
class PlanCacheEntry:
    """Aggregated execution history of one query template."""

    template: QueryTemplate
    #: a concrete recent instance, kept for what-if cost estimation
    sample_query: Query
    execution_count: int = 0
    total_ms: float = 0.0
    first_seen_ms: float = 0.0
    last_seen_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        if self.execution_count == 0:
            return 0.0
        return self.total_ms / self.execution_count


class QueryPlanCache:
    """LRU-bounded aggregation of executions per query template."""

    def __init__(self) -> None:
        self._entries: BoundedLRU[str, PlanCacheEntry] = BoundedLRU(CAPACITY)
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    @property
    def evictions(self) -> int:
        return self._evictions

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, query: Query, elapsed_ms: float, now_ms: float) -> PlanCacheEntry:
        """Record one execution of ``query`` taking ``elapsed_ms``."""
        template = query.template()
        key = template.key
        entry = self._entries.get(key)
        if entry is None:
            entry = PlanCacheEntry(
                template=template,
                sample_query=query,
                first_seen_ms=now_ms,
            )
            self._evictions += self._entries.put(key, entry)
        else:
            entry.sample_query = query
        entry.execution_count += 1
        entry.total_ms += elapsed_ms
        entry.last_seen_ms = now_ms
        return entry

    def entry(self, key: str) -> PlanCacheEntry | None:
        return self._entries.peek(key)

    def entries(self) -> list[PlanCacheEntry]:
        return list(self._entries.values())

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """``template key → (execution count, total ms)`` at this instant.

        The workload predictor diffs consecutive snapshots to reconstruct a
        time series without the cache having to store one.
        """
        return {
            key: (entry.execution_count, entry.total_ms)
            for key, entry in self._entries.items()
        }

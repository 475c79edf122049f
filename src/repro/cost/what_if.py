"""The what-if optimizer: costs under hypothetical configurations.

Classic what-if optimization [Chaudhuri & Narasayya, VLDB'97] prices a
query as if a candidate structure existed. Here the hypothetical
configuration is *actually entered* through the raw/unaccounted action
path — each chunk builds a segment or index the first time a state needs
it and swaps it in from its structure memo after that
(:mod:`repro.dbms.chunk`) — costs are taken with zero side effects
(probe-mode execution or an analytic estimator), and the inverse delta
restores the previous state — the simulated clock, counters, plan cache,
and buffer pool never notice.

Measured (probe-mode) costs are memoised in a
:class:`~repro.util.lru.BoundedLRU` keyed by the query and what pricing it
reads: the table's footprint for its predicate columns
(:meth:`~repro.dbms.table.Table.footprint` — what its plan binds), where
the table's chunks outside DRAM sit and which of them the buffer pool
holds, and the ``scan_threads`` knob. A delta that touches none of that
leaves the entry valid, and a configuration visited again finds it, so
repeated pricing — the dominant pattern in dependence measurement,
candidate assessment, and trigger evaluation — becomes a dict hit. See
``docs/planner.md`` ("Footprints and caches").
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from contextlib import contextmanager
from typing import Iterator

from repro.configuration.delta import ConfigurationDelta
from repro.cost.base import CostEstimator
from repro.dbms.database import Database
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.table import Footprint
from repro.forecasting.scenarios import WorkloadScenario
from repro.kpi.metrics import (
    WHATIF_CACHE_EVICTIONS,
    WHATIF_CACHE_HITS,
    WHATIF_CACHE_MISSES,
    WHATIF_CACHE_SIZE,
    WHATIF_SCENARIO_COVERAGE,
)
from repro.telemetry.metrics import MetricRegistry
from repro.util.lru import BoundedLRU, CacheStats
from repro.workload.query import Query

#: Default bound on cached ``(query, footprint, placement)`` cost entries.
DEFAULT_CACHE_SIZE = 4096


class WhatIfOptimizer:
    """Prices queries and workloads under hypothetical configurations."""

    def __init__(
        self,
        database: Database,
        estimator: CostEstimator | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        registry: MetricRegistry | None = None,
    ) -> None:
        """With ``estimator=None`` costs are *measured* by probe-mode
        execution against real data (exact in the simulator); otherwise the
        given analytic estimator prices queries (faster, approximate).

        ``cache_size`` bounds the footprint-keyed cost cache for the measured
        path (0 disables caching). Analytic estimates are never cached:
        they are cheap and estimators may be stateful (learned models).

        ``registry`` is the telemetry registry the cache counters live in
        (the driver passes its shared one); without it the optimizer keeps
        a private registry.
        """
        self._db = database
        self._estimator = estimator
        self._cache: BoundedLRU[tuple[Query, Footprint, tuple], float] = (
            BoundedLRU(cache_size)
        )
        self._registry = registry if registry is not None else MetricRegistry()
        self._hits = self._registry.counter(WHATIF_CACHE_HITS)
        self._misses = self._registry.counter(WHATIF_CACHE_MISSES)
        self._evictions = self._registry.counter(WHATIF_CACHE_EVICTIONS)
        self._size_gauge = self._registry.gauge(
            WHATIF_CACHE_SIZE, self._cache_len
        )
        # coverage of the most recent scenario pricing; 1.0 until a
        # scenario with missing sample queries is priced
        self._coverage_gauge = self._registry.gauge(WHATIF_SCENARIO_COVERAGE)
        self._coverage_gauge.set(1.0)

    def _cache_len(self) -> float:
        """Picklable gauge callback (bound method, not a lambda)."""
        return float(len(self._cache))

    @property
    def database(self) -> Database:
        return self._db

    @property
    def is_measured(self) -> bool:
        """True when costs come from probe-mode execution, not a model."""
        return self._estimator is None

    # ------------------------------------------------------------------
    # cache observability

    @property
    def cache_size(self) -> int:
        """Configured LRU bound of the cost cache (0 = disabled)."""
        return self._cache.capacity

    @property
    def cache_stats(self) -> CacheStats:
        return CacheStats(
            hits=int(self._hits.value),
            misses=int(self._misses.value),
            evictions=int(self._evictions.value),
            size=len(self._cache),
        )

    @property
    def registry(self) -> MetricRegistry:
        """The registry holding the cache counters."""
        return self._registry

    # ------------------------------------------------------------------
    # pricing

    def _measured_cost(self, query: Query) -> float:
        """One probe-mode execution."""
        table = self._db.table(query.table)
        result = self._db.executor.execute(query, table, probe=True)
        return result.report.elapsed_ms

    def query_cost_ms(self, query: Query) -> float:
        """Cost of one query under the current (possibly hypothetical)
        configuration: a one-element :meth:`batch_query_costs`."""
        return self.batch_query_costs((query,))[0]

    def batch_query_costs(self, queries: Sequence[Query]) -> list[float]:
        """Costs of many queries, in order, under the current (possibly
        hypothetical) configuration — the one pricing loop.

        Measured probes run through the executor, so they share the
        database's compiled-plan cache. What a cost reads besides its
        footprint — tier and pool membership of the table's chunks outside
        DRAM, the thread count — is read once per table (probe-mode
        executions change none of it) and the counters are updated in
        aggregate, so assessors pricing whole template sets pay the
        bookkeeping once per batch instead of once per query. A query
        repeated within the batch misses once and hits after.
        """
        if self._estimator is not None:
            return [
                self._estimator.estimate_query_ms(query) for query in queries
            ]
        cache = self._cache
        if cache.capacity == 0:
            return [self._measured_cost(query) for query in queries]
        db = self._db
        pool = db.executor.buffer_pool
        threads = db.knobs.get(SCAN_THREADS_KNOB)
        tables: dict[str, tuple] = {}
        costs: list[float] = []
        hits = misses = evictions = 0
        for query in queries:
            name = query.table
            read = tables.get(name)
            if read is None:
                table = db.table(name)
                placement = tuple(
                    (i, chunk.tier.value, pool.peek((name, chunk.chunk_id)))
                    for i, chunk in table.nondram()
                )
                read = tables[name] = (table, (placement, threads))
            table, placed = read
            key = (query, table.footprint(query.predicate_columns), placed)
            cached = cache.get(key)
            if cached is not None:
                hits += 1
                costs.append(cached)
                continue
            misses += 1
            cost = self._measured_cost(query)
            evictions += cache.put(key, cost)
            costs.append(cost)
        if hits:
            self._hits.inc(float(hits))
        if misses:
            self._misses.inc(float(misses))
        if evictions:
            self._evictions.inc(float(evictions))
        return costs

    def scenario_cost_ms(
        self, scenario: WorkloadScenario, sample_queries: dict[str, Query]
    ) -> float:
        """Frequency-weighted workload cost of one scenario.

        Templates with positive forecast frequency but no sample query
        cannot be priced; their weight is *dropped*, so the returned cost
        underestimates the true workload. The priced fraction is surfaced
        on the ``whatif_scenario_coverage`` gauge and a ``RuntimeWarning``
        is emitted whenever it falls below 1.0.
        """
        weighted: list[tuple[float, Query]] = []
        considered = 0
        for key, frequency in scenario.frequencies.items():
            if frequency <= 0:
                continue
            considered += 1
            query = sample_queries.get(key)
            if query is None:
                continue
            weighted.append((frequency, query))
        coverage = len(weighted) / considered if considered else 1.0
        self._coverage_gauge.set(coverage)
        if coverage < 1.0:
            warnings.warn(
                f"scenario {scenario.name!r}: only {len(weighted)} of "
                f"{considered} positive-frequency templates have sample "
                "queries; the scenario cost underestimates the workload",
                RuntimeWarning,
                stacklevel=2,
            )
        costs = self.batch_query_costs([query for _, query in weighted])
        total = 0.0
        for (frequency, _), cost in zip(weighted, costs):
            total += frequency * cost
        return total

    # ------------------------------------------------------------------
    # hypothetical configurations

    @contextmanager
    def hypothetical(
        self, delta: ConfigurationDelta
    ) -> Iterator["WhatIfOptimizer"]:
        """Apply ``delta`` raw, yield, then roll back. Nestable.

        Nothing else is needed to keep the caches honest: they key on what
        a query reads, so costs cached for the surrounding state are found
        again after the rollback and a later re-application of the same
        delta finds the costs of this visit.
        """
        inverse = delta.apply_raw(self._db)
        try:
            yield self
        finally:
            inverse.apply_raw(self._db)

    def cost_with(
        self,
        delta: ConfigurationDelta,
        scenario: WorkloadScenario,
        sample_queries: dict[str, Query],
    ) -> float:
        """Scenario cost as if ``delta`` were applied."""
        with self.hypothetical(delta):
            return self.scenario_cost_ms(scenario, sample_queries)

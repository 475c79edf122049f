"""The query planner: one compiler shared by execution and pricing.

``QueryPlanner.plan_for`` compiles ``(query, table)`` into a
:class:`~repro.plan.ir.PhysicalPlan` — an ordered per-chunk step list
choosing prune / index-probe / full-scan — and memoises the result in a
:class:`~repro.util.lru.BoundedLRU` keyed by the query and its *footprint*:
what the table says a query with those predicate columns reads
(:meth:`~repro.dbms.table.Table.footprint`). The query executor runs
compiled plans against real chunk data; the physical cost model prices the
*same* plan objects from statistics; the what-if optimizer's probe-mode
executions flow through the executor and therefore share the cache too.
Before this layer existed the executor and the cost model each walked the
chunks themselves and could silently drift; now one compiler chooses
access paths for both (the paper's §II-A.d requirement that cost-model
error come "purely from selectivity estimation").

:meth:`QueryPlanner.compile` calls the kernel's
:func:`~repro.dbms.kernel.compile_plan`, which builds the steps and
binds them for execution in one pass, so a plan arrives with its memo
filled: a miss pays for the chunks the query reads and the literals it
carries, because everything else is kept per footprint
(:class:`~repro.dbms.operators.AccessPaths`).

Cache coherence is the footprint's job (``docs/planner.md``, "Footprints
and caches"): a change to anything a plan binds, an append included,
changes the key, and a change to anything else does not. ``cache_size=0``
compiles fresh on every call.

The ``plan_compiles`` / ``plan_cache_*`` counters live in a telemetry
:class:`~repro.telemetry.metrics.MetricRegistry` (a database's planner
counts in ``Database.registry``, which a tenant's telemetry spine is
built over), surfacing compile-skip ratios in ``python -m repro trace``
and the KPI monitor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.plan.ir import PhysicalPlan
from repro.telemetry.metrics import MetricRegistry
from repro.util.lru import BoundedLRU, CacheStats

if TYPE_CHECKING:
    from repro.dbms.table import Footprint, Table
    from repro.workload.query import Query

#: Default bound on cached ``(footprint, query)`` plan entries.
DEFAULT_PLAN_CACHE_SIZE = 512

# Planner metric names. Defined here — not in repro.kpi.metrics, which
# re-exports them — because the plan layer sits below the DBMS substrate
# and must not import the KPI package. The names double as the counter
# names in the telemetry MetricRegistry.
PLAN_COMPILES = "plan_compiles"
PLAN_COMPILE_CHUNKS = "plan_compile_chunks"
PLAN_CACHE_HITS = "plan_cache_hits"
PLAN_CACHE_MISSES = "plan_cache_misses"
PLAN_CACHE_EVICTIONS = "plan_cache_evictions"
PLAN_CACHE_SIZE = "plan_cache_size"


def _compile_plan(query: "Query", table: "Table") -> tuple:
    """:func:`repro.dbms.kernel.compile_plan`, imported on the first call:
    the kernel imports the plan IR, so a module-level import here would
    close a cycle through the package ``__init__``. The first call binds
    this module's name to the kernel's function, so later calls pay no
    import."""
    global _compile_plan
    from repro.dbms.kernel import compile_plan

    _compile_plan = compile_plan
    return compile_plan(query, table)


class QueryPlanner:
    """Compiles queries into physical plans, with a footprint-keyed cache."""

    def __init__(
        self,
        cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        registry: MetricRegistry | None = None,
    ) -> None:
        """``cache_size`` bounds the LRU (0 disables caching). ``registry``
        is where the compile/cache counters are registered; a private
        registry is used when omitted.
        """
        self._cache: BoundedLRU[tuple["Footprint", "Query"], PhysicalPlan] = (
            BoundedLRU(cache_size)
        )
        self._registry = registry if registry is not None else MetricRegistry()
        self._compiles = self._registry.counter(PLAN_COMPILES)
        self._compile_chunks = self._registry.counter(PLAN_COMPILE_CHUNKS)
        self._hits = self._registry.counter(PLAN_CACHE_HITS)
        self._misses = self._registry.counter(PLAN_CACHE_MISSES)
        self._evictions = self._registry.counter(PLAN_CACHE_EVICTIONS)
        self._size_gauge = self._registry.gauge(
            PLAN_CACHE_SIZE, self._cache_len
        )

    def _cache_len(self) -> float:
        """Picklable gauge callback (bound method, not a lambda)."""
        return float(len(self._cache))

    # ------------------------------------------------------------------
    # observability

    @property
    def cache_size(self) -> int:
        """Configured LRU bound of the plan cache (0 = disabled)."""
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
        """The registry holding the compile/cache counters."""
        return self._registry

    def resize_cache(self, cache_size: int) -> None:
        """Re-bound the LRU (0 disables caching); shrinking evicts."""
        self._cache.resize(cache_size)

    # ------------------------------------------------------------------
    # compilation

    def compile(self, query: "Query", table: "Table") -> PhysicalPlan:
        """Compile ``query`` against ``table``'s current physical design.

        Always compiles fresh (no cache interaction) — :meth:`plan_for` is
        the memoised entry point consumers should use.
        """
        steps, bound = _compile_plan(query, table)
        self._compiles.inc()
        self._compile_chunks.inc(float(len(steps)))
        return PhysicalPlan(
            table=table.name, query=query, steps=steps, memo={"bound": bound}
        )

    def plan_for(self, query: "Query", table: "Table") -> PhysicalPlan:
        """The compiled plan for ``query``, from the cache when possible.

        Cached entries are keyed by ``table``'s footprint for the query's
        predicate columns and the query, so a plan is found again exactly
        when everything it binds is as it was when it was compiled.
        """
        cache = self._cache
        if cache.capacity == 0:
            return self.compile(query, table)
        key = (table.footprint(query.predicate_columns), query)
        plan = cache.get(key)
        if plan is not None:
            self._hits.inc()
            return plan
        self._misses.inc()
        plan = self.compile(query, table)
        evicted = cache.put(key, plan)
        if evicted:
            self._evictions.inc(float(evicted))
        return plan

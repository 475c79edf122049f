"""The query planner: one compiler shared by execution and pricing.

``QueryPlanner.plan_for`` compiles ``(query, table)`` under the database's
current *plan epoch* into a :class:`~repro.plan.ir.PhysicalPlan` — an
ordered per-chunk step list choosing prune / index-probe / full-scan —
and memoises the result in a :class:`~repro.util.lru.BoundedLRU` keyed
``(plan_epoch, query)``. The query executor runs compiled plans against
real chunk data; the physical cost model prices the *same* plan objects
from statistics; the what-if optimizer's probe-mode executions flow
through the executor and therefore share the cache too. Before this layer existed the executor and the cost model each
walked the chunks themselves and could silently drift; now the planner is
the single place access paths are chosen (the paper's §II-A.d requirement
that cost-model error come "purely from selectivity estimation").

Cache coherence is the plan epoch's job (``docs/planner.md``, "Epochs
and caches"); appends are covered by a chunk-count guard at lookup time.
A planner constructed without an ``epoch_fn`` (or with ``cache_size=0``)
compiles fresh on every call — the behaviour of a standalone executor
outside a :class:`~repro.dbms.database.Database`.

The ``plan_compiles`` / ``plan_cache_*`` counters live in a telemetry
:class:`~repro.telemetry.metrics.MetricRegistry` (the driver adopts them
into its shared registry), surfacing compile-skip ratios in
``python -m repro trace`` and the KPI monitor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.plan.ir import PhysicalPlan
from repro.telemetry.metrics import MetricRegistry
from repro.util.lru import BoundedLRU, CacheStats

if TYPE_CHECKING:
    from repro.dbms.table import Table
    from repro.workload.query import Query

#: Default bound on cached ``(plan_epoch, query)`` plan entries.
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
PLAN_CACHE_INVALIDATIONS = "plan_cache_invalidations"
PLAN_CACHE_SIZE = "plan_cache_size"


class QueryPlanner:
    """Compiles queries into physical plans, with an epoch-keyed cache."""

    def __init__(
        self,
        cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        epoch_fn: Callable[[], int] | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        """``epoch_fn`` reads the owning database's plan epoch; without it
        (standalone executors) every :meth:`plan_for` compiles fresh, since
        no source of invalidation exists. ``cache_size`` bounds the LRU
        (0 disables caching explicitly). ``registry`` is where the
        compile/cache counters are registered; a private registry is used
        when omitted and can be surfaced later via :meth:`bind_registry`.
        """
        self._epoch_fn = epoch_fn
        self._cache: BoundedLRU[tuple[int, "Query"], PhysicalPlan] = (
            BoundedLRU(cache_size if epoch_fn else 0)
        )
        self._registry = registry if registry is not None else MetricRegistry()
        self._compiles = self._registry.counter(PLAN_COMPILES)
        self._compile_chunks = self._registry.counter(PLAN_COMPILE_CHUNKS)
        self._hits = self._registry.counter(PLAN_CACHE_HITS)
        self._misses = self._registry.counter(PLAN_CACHE_MISSES)
        self._evictions = self._registry.counter(PLAN_CACHE_EVICTIONS)
        self._invalidations = self._registry.counter(PLAN_CACHE_INVALIDATIONS)
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
            invalidations=int(self._invalidations.value),
            size=len(self._cache),
        )

    @property
    def registry(self) -> MetricRegistry:
        """The registry holding the compile/cache counters."""
        return self._registry

    def bind_registry(
        self, registry: MetricRegistry, replace: bool = False
    ) -> None:
        """Surface the planner counters through ``registry`` as well.

        Adopts the existing counter/gauge *objects* (see
        :meth:`~repro.telemetry.metrics.MetricRegistry.adopt`), so counts
        stay continuous and bumps are visible through both registries.
        """
        if registry is not self._registry:
            registry.adopt_all(
                (
                    self._compiles,
                    self._compile_chunks,
                    self._hits,
                    self._misses,
                    self._evictions,
                    self._invalidations,
                    self._size_gauge,
                ),
                replace=replace,
            )

    def resize_cache(self, cache_size: int) -> None:
        """Re-bound the LRU (0 disables caching); shrinking evicts."""
        self._cache.resize(cache_size if self._epoch_fn else 0)

    def clear_cache(self) -> None:
        """Drop all cached plans (counters are kept)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # compilation

    def compile(self, query: "Query", table: "Table") -> PhysicalPlan:
        """Compile ``query`` against ``table``'s current physical design.

        Always compiles fresh (no cache interaction) — :meth:`plan_for` is
        the memoised entry point consumers should use.
        """
        # deferred: operators imports the plan IR, so a module-level import
        # here would close a cycle through the package __init__
        from repro.dbms.operators import compile_chunk_step

        chunks = table.chunks()
        predicates = tuple(query.predicates)
        # per-row projected output width is chunk statistics the plan can
        # carry, sparing execution from decoding segments just to count
        # output bytes (aggregates materialise a single value instead)
        projected: tuple[str, ...] = ()
        if query.aggregate is None:
            projected = (
                query.projection
                if query.projection is not None
                else tuple(table.schema.column_names)
            )
        steps = []
        for chunk in chunks:
            width = chunk.projected_width(projected) if projected else 0.0
            steps.append(compile_chunk_step(chunk, predicates, width))
        self._compiles.inc()
        self._compile_chunks.inc(float(len(chunks)))
        plan = PhysicalPlan(
            table=table.name,
            query=query,
            steps=tuple(steps),
            chunk_count=len(chunks),
            plan_epoch=self._epoch_fn() if self._epoch_fn else 0,
        )
        # Precompute the execution-kernel arrays (step kinds, chunk ids,
        # prune charges, output widths) while the steps are hot: every
        # later execution of this cached plan runs straight from them.
        plan.kernel()
        return plan

    def plan_for(self, query: "Query", table: "Table") -> PhysicalPlan:
        """The compiled plan for ``query``, from the cache when possible.

        Cached entries are keyed ``(plan_epoch, query)``; an entry whose
        chunk count no longer matches the table (rows were appended since
        compilation) is discarded and recompiled.
        """
        if self._epoch_fn is None or self._cache.capacity == 0:
            return self.compile(query, table)
        epoch = self._epoch_fn()
        key = (epoch, query)
        plan = self._cache.get(key)
        if plan is not None:
            if plan.chunk_count == len(table.chunks()):
                self._hits.inc()
                return plan
            self._cache.pop(key)
            self._invalidations.inc()
        self._misses.inc()
        plan = self.compile(query, table)
        evicted = self._cache.put(key, plan)
        if evicted:
            self._evictions.inc(float(evicted))
        return plan

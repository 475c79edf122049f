"""The database facade: catalog, execution, knobs, plan cache, plugins.

This is the "Hyrise" of the reproduction. Everything the framework touches
goes through this class: query execution (which feeds the plan cache),
configuration primitives (create/drop index, re-encode, move or sort a
chunk, set a knob — accounted entry points over the one implementation in
:mod:`repro.configuration.actions`, each returning its simulated one-time
cost), memory accounting, and the plugin host the driver attaches through.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.dbms.catalog import Catalog
from repro.dbms.executor import QueryExecutor, QueryResult
from repro.dbms.hardware import DEFAULT_HARDWARE, HardwareProfile
from repro.dbms.knobs import KnobRegistry, standard_knobs
from repro.dbms.plan_cache import QueryPlanCache
from repro.dbms.plugin import PluginHost
from repro.dbms.schema import TableSchema
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.dbms.table import DEFAULT_TARGET_CHUNK_SIZE, Table
from repro.plan.planner import QueryPlanner
from repro.util.lru import BoundedLRU, CacheStats
from repro.util.timer import SimulatedClock
from repro.workload.query import Query
from repro.workload.sql import parse_sql

#: Bound on the memoised epoch-transition tables (see _EpochCounter).
_EPOCH_MEMO_CAPACITY = 65_536

#: What :meth:`Database.epoch_mark` returns: the config epoch and the
#: buffer-pool fingerprint ``(entry count, used bytes)`` taken with it.
EpochMark = tuple[int, tuple[int, int]]


def _actions():
    """:mod:`repro.configuration.actions`, imported on first use: that
    module imports this one, so the import cannot sit at module level."""
    from repro.configuration import actions

    return actions


def _scope(chunk_ids: Sequence[int] | None) -> tuple[int, ...] | None:
    return None if chunk_ids is None else tuple(chunk_ids)


class _EpochCounter:
    """One epoch: the current value and the allocator behind it.

    Values come from a monotonically increasing allocation count, so
    distinct states never share one. With a ``token`` (a deterministic
    description of the mutation) the transition ``(old value, token) ->
    new value`` is memoised: re-applying the same mutation from the same
    epoch — the dominant pattern when the what-if optimizer re-explores
    a hypothetical state it has visited before — lands on the same
    value, so whatever is cached for that state is reused. Tokens must
    determine the resulting state given the starting state (action
    descriptions qualify; anything time- or randomness-dependent does
    not).
    """

    __slots__ = ("value", "_allocated", "_transitions")

    def __init__(self) -> None:
        self.value = 0
        self._allocated = 0
        self._transitions: BoundedLRU[tuple[int, str], int] = BoundedLRU(
            _EPOCH_MEMO_CAPACITY
        )

    def bump(self, token: str | None = None) -> int:
        if token is None:
            self._allocated += 1
            self.value = self._allocated
            return self.value
        key = (self.value, token)
        known = self._transitions.get(key)
        if known is None:
            self._allocated += 1
            known = self._allocated
            self._transitions.put(key, known)
        self.value = known
        return known

    def restore(self, value: int) -> None:
        """Go back to an earlier value; the allocation count is *not*
        rewound, so values stay unambiguous."""
        self.value = value


@dataclass
class RuntimeCounters:
    """Cumulative counters backing the DBMS-side runtime KPIs."""

    queries_executed: int = 0
    total_query_ms: float = 0.0
    rows_matched: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    reconfigurations: int = 0
    total_reconfiguration_ms: float = 0.0
    recent_query_ms: list[float] = field(default_factory=list, repr=False)

    def snapshot(self) -> dict[str, float]:
        return {
            "queries_executed": float(self.queries_executed),
            "total_query_ms": self.total_query_ms,
            "rows_matched": float(self.rows_matched),
            "buffer_hits": float(self.buffer_hits),
            "buffer_misses": float(self.buffer_misses),
            "reconfigurations": float(self.reconfigurations),
            "total_reconfiguration_ms": self.total_reconfiguration_ms,
        }


class Database:
    """An in-memory columnar database with simulated timing."""

    def __init__(
        self,
        name: str = "db",
        hardware: HardwareProfile | None = None,
        clock: SimulatedClock | None = None,
        default_encoding: EncodingType = EncodingType.UNENCODED,
        plan_cache_capacity: int = 1024,
    ) -> None:
        self.name = name
        self.hardware = hardware or DEFAULT_HARDWARE
        self.clock = clock or SimulatedClock()
        self.catalog = Catalog()
        self.knobs = KnobRegistry(standard_knobs())
        self.plan_cache = QueryPlanCache(plan_cache_capacity)
        # a bound method (not a lambda) so the whole database remains
        # picklable — fleet workers ship tenant stacks across processes
        self.planner = QueryPlanner(epoch_fn=self._read_plan_epoch)
        self.executor = QueryExecutor(self.hardware, self.knobs, self.planner)
        self.plugin_host = PluginHost(self)
        self.counters = RuntimeCounters()
        self._default_encoding = default_encoding
        # the config epoch identifies the pricing-relevant state (physical
        # design, knobs, buffer pool); the coarser plan epoch only the
        # *structural* state compiled plans depend on — see the
        # config_epoch and plan_epoch properties
        self._config_epoch = _EpochCounter()
        self._plan_epoch = _EpochCounter()
        # config epoch -> plan epoch, so restoring a config epoch after an
        # exact what-if rollback restores the matching plan epoch too
        self._plan_epoch_of_config: BoundedLRU[int, int] = BoundedLRU(
            _EPOCH_MEMO_CAPACITY
        )
        self._plan_epoch_of_config.put(0, 0)

    def _read_plan_epoch(self) -> int:
        """Picklable ``epoch_fn`` for the planner (see ``__init__``)."""
        return self._plan_epoch.value

    # ------------------------------------------------------------------
    # configuration identity

    @property
    def config_epoch(self) -> int:
        """Identity of the current pricing-relevant state.

        Two probe-mode pricings of the same query at the same epoch are
        guaranteed to return the same cost: every mutation that can change
        pricing — raw action application (every configuration change) and
        buffer-pool traffic from accounted query execution — bumps the
        epoch. Distinct states never share an epoch because epoch values
        are allocated from a monotonically increasing counter. Data loaded
        directly through :meth:`Table.append` is expected to precede
        tuning; such appends do not bump the epoch.
        """
        return self._config_epoch.value

    def bump_config_epoch(self, token: str | None = None) -> int:
        """Mark the pricing-relevant state as changed; returns the epoch.

        Tokened transitions are memoised (see :class:`_EpochCounter`), so
        cached costs for a re-explored hypothetical state are reused.
        """
        if token is not None:
            # a tokened bump describes a structural mutation (raw action
            # application), which invalidates compiled plans as well
            self._plan_epoch.bump(token)
        epoch = self._config_epoch.bump(token)
        self._plan_epoch_of_config.put(epoch, self._plan_epoch.value)
        return epoch

    @property
    def plan_epoch(self) -> int:
        """Identity of the current *structural* state compiled plans see.

        Coarser than :attr:`config_epoch`: physical design (indexes,
        encodings, sort orders, placements), schema, and knob changes bump
        it, but buffer-pool traffic does not — compiled plans resolve
        storage tier and pool residency at bind time, so they survive pool
        movement (see :mod:`repro.plan.binder`). Two queries planned at the
        same plan epoch are guaranteed to compile to identical plans,
        which is what lets the planner's cache key on
        ``(plan_epoch, query)``. Appends are covered separately by the
        planner's chunk-count guard.
        """
        return self._plan_epoch.value

    def bump_plan_epoch(self, token: str | None = None) -> int:
        """Mark the structural state as changed; returns the plan epoch.

        Tokened transitions are memoised (see :class:`_EpochCounter`), so
        the what-if optimizer re-exploring a hypothetical configuration
        lands back on a plan epoch it has compiled under before.
        """
        return self._plan_epoch.bump(token)

    def restore_config_epoch(self, epoch: int) -> None:
        """Reset the epoch after the caller restored the exact physical
        state that ``epoch`` described (what-if rollback). The plan epoch
        that was current at ``epoch`` is restored alongside; if that
        mapping has aged out, a fresh plan epoch is allocated instead
        (plans recompile — safe, never stale)."""
        self._config_epoch.restore(epoch)
        known = self._plan_epoch_of_config.get(epoch)
        if known is not None:
            self._plan_epoch.restore(known)
        else:
            self._plan_epoch.bump()
        self._plan_epoch_of_config.put(epoch, self._plan_epoch.value)

    def epoch_mark(self) -> EpochMark:
        """The state :meth:`rewind_epoch` needs: the config epoch and the
        buffer-pool fingerprint that will prove a rollback was exact."""
        pool = self.executor.buffer_pool
        return self._config_epoch.value, (pool.entry_count, pool.used_bytes)

    def rewind_epoch(self, mark: EpochMark) -> None:
        """Fix the epochs after the caller rolled the configuration back
        to what it was at ``mark``.

        The marked epochs are restored when the rollback was exact, so
        everything cached for the marked state stays valid. Raw actions
        can only *remove* buffer-pool entries (invalidation, capacity
        shrink), never add them, so an unchanged (entry count, used
        bytes) pair proves the pool — and with it the whole
        pricing-relevant state — was restored bit-identically. Otherwise
        the state is new and gets a fresh config epoch.
        """
        epoch, pool_then = mark
        pool = self.executor.buffer_pool
        if (pool.entry_count, pool.used_bytes) == pool_then:
            self.restore_config_epoch(epoch)
        else:
            self.bump_config_epoch()

    # ------------------------------------------------------------------
    # schema and data

    def create_table(
        self,
        schema: TableSchema,
        target_chunk_size: int = DEFAULT_TARGET_CHUNK_SIZE,
    ) -> Table:
        table = Table(
            schema,
            target_chunk_size=target_chunk_size,
            default_encoding=self._default_encoding,
        )
        self.catalog.register(table)
        self.bump_config_epoch()
        return table

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # ------------------------------------------------------------------
    # execution

    def execute(
        self, query: Query | str, materialize: bool = False
    ) -> QueryResult:
        """Execute a query (or SQL string), advancing the simulated clock and
        recording the execution in the plan cache."""
        if isinstance(query, str):
            query = parse_sql(query)
        table = self.catalog.table(query.table)
        result = self.executor.execute(query, table, materialize=materialize)
        elapsed = result.report.elapsed_ms
        self.clock.advance(elapsed)
        self.plan_cache.record(query, elapsed, self.clock.now_ms)
        counters = self.counters
        counters.queries_executed += 1
        counters.total_query_ms += elapsed
        counters.rows_matched += result.row_count
        counters.buffer_hits += result.report.work.buffer_hits
        counters.buffer_misses += result.report.work.buffer_misses
        counters.recent_query_ms.append(elapsed)
        if len(counters.recent_query_ms) > 4096:
            del counters.recent_query_ms[:2048]
        work = result.report.work
        if work.buffer_hits or work.buffer_misses:
            # buffer-pool admissions/LRU movement change probe-mode costs
            self.bump_config_epoch()
        return result

    # ------------------------------------------------------------------
    # configuration primitives: accounted entry points over Action.apply
    # (price -> apply raw -> record); each returns its one-time cost

    def _record_reconfiguration(
        self, work_ms: float, elapsed_ms: float, count: int
    ) -> float:
        """Account ``count`` applied configuration changes — the one place
        that does: the clock advances by the simulated wall time they
        occupied, the counters by their number and summed work (the two
        times differ only for parallel application). The raw mutation has
        already bumped the epochs if it changed anything."""
        self.clock.advance(elapsed_ms)
        self.counters.reconfigurations += count
        self.counters.total_reconfiguration_ms += work_ms
        return work_ms

    def create_index(
        self,
        table_name: str,
        columns: Sequence[str],
        chunk_ids: Sequence[int] | None = None,
    ) -> float:
        return _actions().CreateIndexAction(
            table_name, tuple(columns), _scope(chunk_ids)
        ).apply(self)

    def drop_index(
        self,
        table_name: str,
        columns: Sequence[str],
        chunk_ids: Sequence[int] | None = None,
    ) -> float:
        return _actions().DropIndexAction(
            table_name, tuple(columns), _scope(chunk_ids)
        ).apply(self)

    def set_encoding(
        self,
        table_name: str,
        column: str,
        encoding: EncodingType,
        chunk_ids: Sequence[int] | None = None,
    ) -> float:
        return _actions().SetEncodingAction(
            table_name, column, encoding, _scope(chunk_ids)
        ).apply(self)

    def move_chunk(
        self, table_name: str, chunk_id: int, tier: StorageTier
    ) -> float:
        return _actions().MoveChunkAction(table_name, chunk_id, tier).apply(self)

    def sort_chunk(self, table_name: str, chunk_id: int, column: str) -> float:
        """Sort one chunk's rows by ``column`` (accounted)."""
        return _actions().SortChunkAction(table_name, column, (chunk_id,)).apply(self)

    def set_knob(self, name: str, value: float) -> float:
        return _actions().SetKnobAction(name, value).apply(self)

    # ------------------------------------------------------------------
    # accounting

    def data_bytes(self) -> int:
        return sum(t.data_bytes() for t in self.catalog.tables())

    def index_bytes(self) -> int:
        return sum(t.index_bytes() for t in self.catalog.tables())

    def memory_bytes(self) -> int:
        return self.data_bytes() + self.index_bytes()

    def tier_usage(self) -> dict[StorageTier, int]:
        """Bytes of chunk data (incl. their indexes) resident per tier."""
        usage = {tier: 0 for tier in StorageTier}
        for table in self.catalog.tables():
            for chunk in table.chunks():
                usage[chunk.tier] += chunk.memory_bytes()
        return usage

    def structure_memo_stats(self) -> CacheStats:
        """Rollup of every chunk's structure memo (segments and indexes
        kept per row order; see :mod:`repro.dbms.chunk`). A plain
        accessor: the memo never affects state, so it is in no KPI."""
        return CacheStats.aggregate(
            chunk.structure_memo_stats()
            for table in self.catalog.tables()
            for chunk in table.chunks()
        )

    def runtime_snapshot(self) -> dict[str, float]:
        """KPI source: counters plus current memory/tier state."""
        snap = self.counters.snapshot()
        snap["config_epoch"] = float(self._config_epoch.value)
        snap["plan_epoch"] = float(self._plan_epoch.value)
        snap["memory_bytes"] = float(self.memory_bytes())
        snap["index_bytes"] = float(self.index_bytes())
        snap["now_ms"] = self.clock.now_ms
        for tier, used in self.tier_usage().items():
            snap[f"tier_{tier.value}_bytes"] = float(used)
        snap["buffer_pool_used_bytes"] = float(
            self.executor.buffer_pool.used_bytes
        )
        return snap

    def __repr__(self) -> str:
        return (
            f"Database(name={self.name!r}, tables={len(self.catalog)}, "
            f"now_ms={self.clock.now_ms:.1f})"
        )

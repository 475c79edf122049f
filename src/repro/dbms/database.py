"""The database facade: catalog, execution, knobs, plan cache, plugins.

This is the "Hyrise" of the reproduction. Everything the framework touches
goes through this class: query execution (``execute`` is where a served
query is accounted — clock, plan cache, runtime and telemetry counters),
configuration primitives (create/drop index, re-encode, move or sort a
chunk, set a knob — accounted entry points over the one implementation in
:mod:`repro.configuration.actions`, each returning its simulated one-time
cost), memory accounting, and the plugin host the driver attaches through.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
from repro.telemetry.metrics import MetricRegistry
from repro.util.lru import CacheStats
from repro.util.timer import SimulatedClock
from repro.workload.query import Query
from repro.workload.sql import parse_sql

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


def _actions():
    """:mod:`repro.configuration.actions`, imported on first use: that
    module imports this one, so the import cannot sit at module level."""
    from repro.configuration import actions

    return actions


def _scope(chunk_ids: Sequence[int] | None) -> tuple[int, ...] | None:
    return None if chunk_ids is None else tuple(chunk_ids)


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
    ) -> None:
        self.name = name
        self.hardware = hardware or DEFAULT_HARDWARE
        self.clock = SimulatedClock()
        self.catalog = Catalog()
        self.knobs = KnobRegistry(standard_knobs())
        self.plan_cache = QueryPlanCache()
        # the one registry of this database's stack: the planner counts
        # here, and a wired tenant's telemetry spine is built over it
        self.registry = MetricRegistry()
        self.planner = QueryPlanner(registry=self.registry)
        self.executor = QueryExecutor(self.hardware, self.knobs, self.planner)
        self.plugin_host = PluginHost(self)
        self.counters = RuntimeCounters()
        self._telemetry: "Telemetry | None" = None
        self._exec_counters = None
        self._query_seq = 0

    # ------------------------------------------------------------------
    # schema and data

    def create_table(
        self,
        schema: TableSchema,
        target_chunk_size: int = DEFAULT_TARGET_CHUNK_SIZE,
    ) -> Table:
        table = Table(schema, target_chunk_size=target_chunk_size)
        self.catalog.register(table)
        return table

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # ------------------------------------------------------------------
    # execution

    def bind_telemetry(self, telemetry: "Telemetry | None") -> None:
        """Attach (or detach, with ``None``) the telemetry spine.

        While bound, every served query (:meth:`execute`) bumps the
        ``exec_*`` work counters, and one per-query span is recorded every
        ``query_sample_every`` served queries so production overhead stays
        bounded. What the tuners run on the executor directly — what-if
        probes, the buffer-pool assessor's scratch-pool replays — is
        estimation work and is never counted as serving.
        """
        if telemetry is None:
            self._telemetry = None
            self._exec_counters = None
            return
        self._telemetry = telemetry
        registry = telemetry.registry
        self._exec_counters = (
            registry.counter("exec_queries"),
            registry.counter("exec_scan_units"),
            registry.counter("exec_probe_units"),
            registry.counter("exec_rows_matched"),
            registry.counter("exec_buffer_hits"),
            registry.counter("exec_buffer_misses"),
            registry.counter("exec_elapsed_sim_ms"),
            registry.counter("exec_sampled_spans"),
        )

    def execute(
        self, query: Query | str, materialize: bool = False
    ) -> QueryResult:
        """Serve a query (or SQL string) — the one accounted entry point
        for queries, as :meth:`_record_reconfiguration` is for changes:
        the simulated clock advances, the plan cache records the
        execution, and the runtime counters and the telemetry ``exec_*``
        counters count it."""
        if isinstance(query, str):
            query = parse_sql(query)
        table = self.catalog.table(query.table)
        telemetry = self._telemetry
        sampled = False
        if telemetry is not None:
            self._query_seq += 1
            every = telemetry.config.query_sample_every
            sampled = every > 0 and (self._query_seq - 1) % every == 0
            if sampled:
                wall_started = time.perf_counter()
        result = self.executor.execute(query, table, materialize=materialize)
        elapsed = result.report.elapsed_ms
        work = result.report.work
        if telemetry is not None:
            exec_counters = self._exec_counters
            exec_counters[0].inc()
            exec_counters[1].inc(work.scan_units)
            exec_counters[2].inc(work.probe_units)
            exec_counters[3].inc(work.rows_matched)
            exec_counters[4].inc(work.buffer_hits)
            exec_counters[5].inc(work.buffer_misses)
            exec_counters[6].inc(elapsed)
            if sampled:
                exec_counters[7].inc()
                # recorded before the clock moves: the span starts where
                # the query did
                telemetry.tracer.record(
                    "query",
                    sim_ms=elapsed,
                    wall_s=time.perf_counter() - wall_started,
                    table=table.name,
                    rows=work.rows_matched,
                    chunks=work.chunks_visited,
                    via_index=work.chunks_via_index,
                    buffer_hits=work.buffer_hits,
                )
        self.clock.advance(elapsed)
        self.plan_cache.record(query, elapsed, self.clock.now_ms)
        counters = self.counters
        counters.queries_executed += 1
        counters.total_query_ms += elapsed
        counters.rows_matched += result.row_count
        counters.buffer_hits += work.buffer_hits
        counters.buffer_misses += work.buffer_misses
        counters.recent_query_ms.append(elapsed)
        if len(counters.recent_query_ms) > 4096:
            del counters.recent_query_ms[:2048]
        return result

    # ------------------------------------------------------------------
    # configuration primitives: accounted entry points over Action.apply
    # (price -> apply raw -> record); each returns its one-time cost

    def _record_reconfiguration(self, work_ms: float, count: int) -> float:
        """Account ``count`` applied configuration changes — the one place
        that does: the clock and the reconfiguration time advance by their
        work, the reconfiguration counter by their number."""
        self.clock.advance(work_ms)
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

"""Query execution with simulated timing.

The executor runs *compiled plans* against real chunk data (so results,
match counts, and selectivities are genuine): each query is first turned
into a :class:`~repro.plan.ir.PhysicalPlan` by the database's
:class:`~repro.plan.planner.QueryPlanner` — cached across repeated
queries — and the executor hands the plan to the vectorized kernel
(:func:`~repro.dbms.kernel.run_plan`, its one execution path), which
prices the work via the :class:`~repro.dbms.hardware.HardwareProfile`:
encoding-weighted scan units, index probe units, tier multipliers
(resolved per execution, softened by buffer pool hits), thread
parallelism from the ``scan_threads`` knob, and output materialisation.

The reported :class:`ExecutionReport` is the "observed runtime" that the
plan cache records and the adaptive cost models learn from. The executor
accounts nothing itself: ``Database.execute`` counts a served query, and
what-if probes and assessor replays that call in here are not serving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.dbms.hardware import HardwareProfile
from repro.dbms.kernel import run_plan
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB, KnobRegistry
from repro.dbms.operators import AggregateSpec, WorkSummary, compute_aggregate
from repro.dbms.table import Table
from repro.errors import ExecutionError
from repro.plan.planner import QueryPlanner
from repro.workload.query import Query


#: bound on the executor's per-(query, schema) validation memo
_VALIDATED_MEMO_CAPACITY = 8_192


class BufferPool:
    """An LRU cache of non-DRAM chunks, sized by the buffer-pool knob.

    A hit makes the chunk behave as if DRAM-resident for this access. The
    pool is the mechanism through which the buffer-pool knob interacts with
    the data-placement feature: a big pool hides bad placements, a small
    pool exposes them.
    """

    def __init__(self, capacity_bytes: float) -> None:
        self._capacity = float(capacity_bytes)
        self._entries: OrderedDict[tuple[str, int], int] = OrderedDict()
        self._used = 0

    @property
    def capacity_bytes(self) -> float:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def set_capacity(self, capacity_bytes: float) -> None:
        self._capacity = float(capacity_bytes)
        self._evict_to_fit()

    def _evict_to_fit(self) -> None:
        while self._used > self._capacity and self._entries:
            _key, size = self._entries.popitem(last=False)
            self._used -= size

    def access(self, key: tuple[str, int], size_bytes: int) -> bool:
        """Touch a chunk; returns True on hit. Misses admit the chunk."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        if size_bytes <= self._capacity:
            self._entries[key] = size_bytes
            self._used += size_bytes
            self._evict_to_fit()
        return False

    def peek(self, key: tuple[str, int]) -> bool:
        """Hit test without admission or LRU movement (what-if probing)."""
        return key in self._entries

    def invalidate(self, key: tuple[str, int]) -> None:
        size = self._entries.pop(key, None)
        if size is not None:
            self._used -= size

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0


@dataclass
class ExecutionReport:
    """Timing breakdown and work counters of one query execution."""

    elapsed_ms: float
    scan_ms: float
    probe_ms: float
    output_ms: float
    aggregate_ms: float
    overhead_ms: float
    work: WorkSummary = field(repr=False, default_factory=WorkSummary)


@dataclass
class QueryResult:
    """Result of executing one query."""

    row_count: int
    aggregate_value: float | str | None
    report: ExecutionReport
    #: materialised output columns; only populated when requested
    rows: dict[str, np.ndarray] | None = None


class QueryExecutor:
    """Executes queries against a set of tables with simulated timing."""

    def __init__(
        self,
        hardware: HardwareProfile,
        knobs: KnobRegistry,
        planner: QueryPlanner,
    ) -> None:
        self._hardware = hardware
        self._knobs = knobs
        self._buffer_pool = BufferPool(knobs.get(BUFFER_POOL_KNOB))
        self._planner = planner
        self._validated: dict[Query, "TableSchema"] = {}

    @property
    def buffer_pool(self) -> BufferPool:
        return self._buffer_pool

    @property
    def planner(self) -> QueryPlanner:
        return self._planner

    def sync_buffer_pool(self) -> None:
        """Re-read the buffer-pool knob (called after knob changes)."""
        self._buffer_pool.set_capacity(self._knobs.get(BUFFER_POOL_KNOB))

    def swap_buffer_pool(self, pool: BufferPool) -> BufferPool:
        """Install a different pool, returning the previous one.

        Used by the buffer-pool assessor to measure a candidate capacity on
        a scratch pool without disturbing the production pool's contents.
        """
        previous = self._buffer_pool
        self._buffer_pool = pool
        return previous

    def _validate(self, query: Query, table: Table) -> None:
        schema = table.schema
        for pred in query.predicates:
            if not schema.has_column(pred.column):
                raise ExecutionError(
                    f"query references unknown column {pred.column!r} "
                    f"of table {table.name!r}"
                )
        if query.projection:
            for name in query.projection:
                if not schema.has_column(name):
                    raise ExecutionError(
                        f"projection references unknown column {name!r}"
                    )
        if query.aggregate_column and not schema.has_column(query.aggregate_column):
            raise ExecutionError(
                f"aggregate references unknown column {query.aggregate_column!r}"
            )

    def execute(
        self,
        query: Query,
        table: Table,
        materialize: bool = False,
        probe: bool = False,
    ) -> QueryResult:
        """Run ``query`` against ``table`` and price the work performed.

        With ``probe=True`` the buffer pool is only peeked, never mutated —
        used by the what-if optimizer so estimation leaves no trace.

        The plan runs through this module's ``run_plan`` name: the one
        seam where the golden tests install their scalar reference.
        """
        # validation memo: queries and schemas are immutable, so one pass
        # per (query, schema) pair settles it; schema replacement (a new
        # object) falls through to a fresh validation
        validated = self._validated
        if validated.get(query) is not table.schema:
            self._validate(query, table)
            validated[query] = table.schema
            if len(validated) > _VALIDATED_MEMO_CAPACITY:
                validated.pop(next(iter(validated)))
        hardware = self._hardware
        threads = int(self._knobs.get(SCAN_THREADS_KNOB))

        plan = self._planner.plan_for(query, table)
        # the aggregate spec and projected-column list derive from the
        # query and schema alone, both frozen for the plan's lifetime —
        # kept in the plan's memo beside what the kernel binds
        preamble = plan.memo.get("preamble")
        if preamble is None:
            agg_spec = (
                AggregateSpec(query.aggregate, query.aggregate_column)
                if query.aggregate
                else None
            )
            projected = (
                list(query.projection)
                if query.projection is not None
                else list(table.schema.column_names)
            )
            plan.memo["preamble"] = (agg_spec, projected)
        else:
            agg_spec, projected = preamble
        work, scan_ms, probe_ms, agg_values, out_columns = run_plan(
            plan,
            table,
            self._buffer_pool,
            hardware,
            threads,
            probe,
            agg_spec,
            projected,
            materialize,
        )

        aggregate_value: float | str | None = None
        aggregate_ms = 0.0
        if agg_spec is not None:
            aggregate_value = compute_aggregate(
                agg_values, agg_spec, work.rows_matched
            )
            work.aggregate_rows = work.rows_matched
            work.output_bytes += 8.0
            aggregate_ms = hardware.aggregate_ms(work.aggregate_rows)

        output_ms = hardware.output_ms(work.output_bytes)
        overhead_ms = hardware.overhead_ms()
        elapsed = scan_ms + probe_ms + output_ms + aggregate_ms + overhead_ms

        report = ExecutionReport(
            elapsed_ms=elapsed,
            scan_ms=scan_ms,
            probe_ms=probe_ms,
            output_ms=output_ms,
            aggregate_ms=aggregate_ms,
            overhead_ms=overhead_ms,
            work=work,
        )
        rows = None
        if materialize and agg_spec is None:
            rows = {
                name: (
                    np.concatenate(parts)
                    if parts
                    else np.zeros(0, dtype=np.int64)
                )
                for name, parts in out_columns.items()
            }
        return QueryResult(
            row_count=work.rows_matched,
            aggregate_value=aggregate_value,
            report=report,
            rows=rows,
        )

"""The hardware-dependent (physical) cost model.

Prices the *same compiled plan* the executor runs — obtained from the
shared :class:`~repro.plan.planner.QueryPlanner` — but *estimates* row
counts from chunk statistics instead of touching data: it sees encodings,
indexes, tiers, buffer-pool residency, and the thread knob. This is the
"hardware-dependent cost model … necessary to ensure a maximum of
precision" of Section II-A.d; because access-path choice is compiled once
and shared, its errors against observed runtimes come purely from
selectivity estimation, never from the model picking a different plan
than the engine.
"""

from __future__ import annotations

from repro.cost.base import CostEstimator
from repro.dbms.chunk import Chunk
from repro.dbms.database import Database
from repro.dbms.executor import BufferPool
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.storage_tiers import StorageTier
from repro.plan.ir import PRUNE_CHECK_UNITS, PlanStep, StepKind
from repro.workload.predicate import Predicate
from repro.workload.query import Query


def _resolve_tier(chunk: Chunk, table_name: str, pool: BufferPool) -> StorageTier:
    """Effective tier of ``chunk`` for one pricing: DRAM when it is
    DRAM-resident or its non-DRAM copy sits in the pool, else its own.
    A tier is not part of a plan, since the pool changes with every
    admission; the kernel's tier pass applies the same rule inline."""
    tier = chunk.tier
    if tier is StorageTier.DRAM:
        return tier
    if pool.peek((table_name, chunk.chunk_id)):
        return StorageTier.DRAM
    return tier


class PhysicalCostModel(CostEstimator):
    """Analytic pricing of compiled plans from chunk statistics."""

    name = "physical"

    def __init__(self, database: Database) -> None:
        self._db = database

    def _estimate_step(
        self, chunk, step: PlanStep, predicates: tuple[Predicate, ...]
    ) -> tuple[float, float, float]:
        """Estimated ``(scan_units, probe_units, rows_out)`` of one step."""
        if step.kind is StepKind.PRUNE:
            return PRUNE_CHECK_UNITS * step.predicate_count, 0.0, 0.0
        scan_units = 0.0
        probe_units = 0.0
        if step.kind is StepKind.INDEX_PROBE:
            live = chunk.row_count * step.estimated_selectivity
            # bind-time index lookup: re-encodes and sorts replace a chunk's
            # indexes, so the plan stores key columns, not index objects
            index = chunk.index(step.index_key)
            probe_units += index.probe_cost_units(
                step.probed_columns, int(live)
            )
        else:
            live = float(chunk.row_count)
        for position in step.scan_positions:
            pred = predicates[position]
            segment = chunk.segment(pred.column)
            scan_units += segment.scan_units(int(live))
            scan_units += segment.scan_overhead_units()
            live *= chunk.statistics(pred.column).selectivity(
                pred.op, pred.value
            )
        return scan_units, probe_units, live

    def estimate_query_ms(self, query: Query) -> float:
        db = self._db
        table = db.table(query.table)
        hardware = db.hardware
        threads = int(db.knobs.get(SCAN_THREADS_KNOB))
        pool = db.executor.buffer_pool
        total = hardware.overhead_ms()
        matched_total = 0.0
        output_bytes = 0.0

        plan = db.planner.plan_for(query, table)
        predicates = query.predicates
        for chunk, step in zip(table.chunks(), plan.steps, strict=True):
            # analytic pricing never mutates the pool: _resolve_tier peeks
            tier = _resolve_tier(chunk, table.name, pool)
            scan_units, probe_units, live = self._estimate_step(
                chunk, step, predicates
            )
            total += hardware.scan_ms(scan_units, tier, threads)
            total += hardware.probe_ms(probe_units, tier)
            matched_total += live
            # per-row projected width comes from the plan (chunk statistics
            # at compile time); zero for aggregates
            output_bytes += live * step.output_width

        if query.aggregate is not None:
            total += hardware.aggregate_ms(matched_total)
            output_bytes += 8.0
        total += hardware.output_ms(output_bytes)
        return total

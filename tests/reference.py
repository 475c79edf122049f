"""The scalar reference: a second derivation of every priced quantity.

:func:`scalar_run_plan` runs a compiled plan the way the executor ran it
before the vectorized kernel existed: chunk by chunk, predicate by
predicate, with its own buffer-pool admission and an explicit ``+=`` per
charge. It has exactly :func:`repro.dbms.kernel.run_plan`'s signature and
return tuple, so :func:`scalar_reference` can install it at the seam the
executor calls — the module global ``repro.dbms.executor.run_plan`` — and
every field the product reports can be compared with it, to the bit.

It shares with the product only the compiled plan, the segments' own
``compare``/``take``/``scan_units``, the index's ``lookup`` and
``probe_cost_units`` and the hardware profile's prices: the batching,
the tier pass and the fixed-charge tables of the kernel are what it
checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import repro.dbms.executor as executor_module
from repro.dbms.chunk import Chunk
from repro.dbms.executor import BufferPool
from repro.dbms.hardware import HardwareProfile
from repro.dbms.operators import AggregateSpec, WorkSummary, compile_chunk_step
from repro.dbms.segments import _compare_array
from repro.dbms.storage_tiers import StorageTier
from repro.dbms.table import Table
from repro.plan.ir import PRUNE_CHECK_UNITS, PhysicalPlan, PlanStep, StepKind
from repro.workload.predicate import Predicate


@dataclass
class ChunkScanResult:
    """Matched positions in one chunk plus the work it took to find them."""

    positions: np.ndarray
    scan_units: float = 0.0
    probe_units: float = 0.0
    used_index: bool = False
    #: predicates evaluated (for diagnostics)
    predicates_evaluated: int = 0


def _evaluate_residual(
    chunk: Chunk,
    positions: np.ndarray,
    predicates: list[Predicate],
    result: ChunkScanResult,
) -> np.ndarray:
    """Filter ``positions`` by the residual predicates, counting scan work."""
    for pred in predicates:
        if len(positions) == 0:
            break
        segment = chunk.segment(pred.column)
        result.scan_units += segment.scan_units(len(positions))
        result.scan_units += segment.scan_overhead_units()
        values = segment.take(positions)
        mask = _compare_array(values, pred.op, pred.value)
        positions = positions[mask]
        result.predicates_evaluated += 1
    return positions


def execute_step(chunk: Chunk, step: PlanStep) -> ChunkScanResult:
    """Run one compiled step against the chunk's real data.

    The index named by ``step.index_key`` is looked up at execution time
    (bind), so steps survive re-encodes and sorts replacing the index.
    """
    if step.kind is StepKind.PRUNE:
        return ChunkScanResult(
            positions=np.empty(0, dtype=np.int64),
            scan_units=PRUNE_CHECK_UNITS * step.predicate_count,
        )
    if step.kind is StepKind.INDEX_PROBE:
        index = chunk.index(step.index_key)
        positions = index.lookup(
            step.equal_values, step.range_predicates
        ).astype(np.int64)
        result = ChunkScanResult(
            positions=positions,
            probe_units=index.probe_cost_units(
                step.probed_columns, len(positions)
            ),
            used_index=True,
            predicates_evaluated=step.covered_count,
        )
        result.positions = _evaluate_residual(
            chunk, positions, list(step.scan_predicates), result
        )
        return result

    # Sequential scan: evaluate each predicate on the still-live rows.
    result = ChunkScanResult(
        positions=np.arange(chunk.row_count, dtype=np.int64)
    )
    if not step.scan_predicates:
        return result
    mask = np.ones(chunk.row_count, dtype=bool)
    live = chunk.row_count
    for pred in step.scan_predicates:
        segment = chunk.segment(pred.column)
        result.scan_units += segment.scan_units(live)
        result.scan_units += segment.scan_overhead_units()
        mask &= segment.compare(pred.op, pred.value)
        live = int(mask.sum())
        result.predicates_evaluated += 1
        if live == 0:
            break
    result.positions = np.flatnonzero(mask)
    return result


def evaluate_chunk(chunk: Chunk, predicates: list[Predicate]) -> ChunkScanResult:
    """Find matching row positions in one chunk, via index probe if possible.
    Chunks whose statistics disprove any predicate are pruned outright."""
    return execute_step(chunk, compile_chunk_step(chunk, predicates))


def scalar_run_plan(
    plan: PhysicalPlan,
    table: Table,
    pool: BufferPool,
    hardware: HardwareProfile,
    threads: int,
    probe: bool,
    agg_spec: AggregateSpec | None,
    projected: list[str],
    materialize: bool,
) -> tuple[
    WorkSummary,
    float,
    float,
    list[np.ndarray],
    dict[str, list[np.ndarray]],
]:
    """The per-chunk loop: ``(work, scan_ms, probe_ms, agg_values,
    out_columns)``, as :func:`repro.dbms.kernel.run_plan` returns them."""
    work = WorkSummary()
    scan_ms = 0.0
    probe_ms = 0.0
    agg_values: list[np.ndarray] = []
    out_columns: dict[str, list[np.ndarray]] = {name: [] for name in projected}
    for chunk, step in zip(table.chunks(), plan.steps, strict=True):
        result = execute_step(chunk, step)
        work.chunks_visited += 1
        if result.used_index:
            work.chunks_via_index += 1

        # a non-DRAM chunk that hits the pool behaves as DRAM; a probe
        # only peeks, an accounted run admits misses and refreshes hits
        tier = chunk.tier
        if tier is not StorageTier.DRAM:
            key = (table.name, chunk.chunk_id)
            if probe:
                hit = pool.peek(key)
            else:
                hit = pool.access(key, chunk.data_bytes())
            if hit:
                tier = StorageTier.DRAM
                work.buffer_hits += 1
            else:
                work.buffer_misses += 1

        work.scan_units += result.scan_units
        work.probe_units += result.probe_units
        scan_ms += hardware.scan_ms(result.scan_units, tier, threads)
        probe_ms += hardware.probe_ms(result.probe_units, tier)

        matched = result.positions
        work.rows_matched += len(matched)
        if len(matched) == 0:
            continue
        if agg_spec is not None:
            if agg_spec.column is not None:
                agg_values.append(chunk.segment(agg_spec.column).take(matched))
        else:
            # output sized from the plan's per-row statistics width, so
            # non-materialised runs never decode segments just to count
            # bytes — and pricing matches the cost model exactly
            work.output_bytes += len(matched) * step.output_width
            if materialize:
                for name in projected:
                    out_columns[name].append(chunk.segment(name).take(matched))
    return work, scan_ms, probe_ms, agg_values, out_columns


@dataclass
class ReferenceCalls:
    """How many plans ran through the reference inside one block."""

    count: int = 0


@contextmanager
def scalar_reference() -> Iterator[ReferenceCalls]:
    """Run every ``QueryExecutor.execute`` inside the block through
    :func:`scalar_run_plan`, counting the plans it runs — a golden test
    whose count stayed 0 compared the product with itself."""
    calls = ReferenceCalls()

    def counted(*args):
        calls.count += 1
        return scalar_run_plan(*args)

    product = executor_module.run_plan
    executor_module.run_plan = counted
    try:
        yield calls
    finally:
        executor_module.run_plan = product

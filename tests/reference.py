"""The reference oracles: a second derivation of every compiled step and
every priced quantity.

:func:`reference_compile` chooses each chunk's access path the way the
planner did before zone maps and per-footprint access paths existed:
chunk by chunk, with :func:`chunk_can_be_pruned` comparing each literal
with the chunk's own statistics and :func:`choose_index_plan` estimating
every index it holds. Its steps must equal the product compiler's
(``tests/plan/test_kernel_golden.py``), exception types included.

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

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import repro.dbms.executor as executor_module
from repro.dbms.chunk import Chunk
from repro.dbms.executor import BufferPool
from repro.dbms.hardware import HardwareProfile
from repro.dbms.index import SortedCompositeIndex
from repro.dbms.operators import (
    INDEX_SELECTIVITY_CUTOFF,
    AggregateSpec,
    WorkSummary,
)
from repro.dbms.segments import _compare_array
from repro.dbms.storage_tiers import StorageTier
from repro.dbms.table import Table
from repro.plan.ir import PRUNE_CHECK_UNITS, PhysicalPlan, PlanStep, StepKind
from repro.workload.predicate import Predicate
from repro.workload.query import Query


@dataclass
class IndexPlan:
    """An index probe covering part of the predicates, plus residuals."""

    index: SortedCompositeIndex
    equal_values: list[object]
    range_predicates: list[tuple[str, object]]
    covered: list[Predicate]
    residual: list[Predicate]
    #: estimated fraction of chunk rows the probe returns
    estimated_selectivity: float


def _covered_selectivity(chunk: Chunk, covered: list[Predicate]) -> float:
    """Estimated joint selectivity of the covered predicates.

    Independence across columns (textbook assumption), but two-sided ranges
    on the *same* column are estimated jointly from the histogram — the
    independence product would grossly overestimate ``BETWEEN``.
    """
    by_column: dict[str, list[Predicate]] = {}
    for pred in covered:
        by_column.setdefault(pred.column, []).append(pred)
    selectivity = 1.0
    for column, preds in by_column.items():
        stats = chunk.statistics(column)
        lower = [p.value for p in preds if p.op in (">", ">=")]
        upper = [p.value for p in preds if p.op in ("<", "<=")]
        others = [p for p in preds if p.op not in (">", ">=", "<", "<=")]
        if lower and upper and stats.data_type.is_numeric:
            selectivity *= stats.between_selectivity(
                float(max(lower)), float(min(upper))
            )
        else:
            for p in preds:
                if p not in others:
                    selectivity *= stats.selectivity(p.op, p.value)
        for p in others:
            selectivity *= stats.selectivity(p.op, p.value)
    return selectivity


def choose_index_plan(
    chunk: Chunk, predicates: Sequence[Predicate]
) -> IndexPlan | None:
    """Pick the best applicable index on ``chunk`` for the predicates.

    An index is applicable when an equality predicate exists for a prefix of
    its key columns, optionally extended by range predicates (at most one
    lower and one upper bound) on the next key column; a pure range probe on
    the first column also qualifies. Among applicable indexes the longest
    equality prefix wins, then the lower estimated selectivity, then the
    narrower index, then the smaller key tuple. Plans above
    :data:`INDEX_SELECTIVITY_CUTOFF` are rejected.
    """
    by_column: dict[str, list[Predicate]] = {}
    for pred in predicates:
        by_column.setdefault(pred.column, []).append(pred)

    best: tuple[tuple[float, ...], IndexPlan] | None = None
    for key in sorted(chunk.index_keys()):
        equal_values: list[object] = []
        covered: list[Predicate] = []
        for column in key:
            eq = next((p for p in by_column.get(column, []) if p.op == "="), None)
            if eq is None:
                break
            equal_values.append(eq.value)
            covered.append(eq)
        range_predicates: list[tuple[str, object]] = []
        next_col_idx = len(equal_values)
        if next_col_idx < len(key):
            column = key[next_col_idx]
            lower = next(
                (p for p in by_column.get(column, []) if p.op in (">", ">=")),
                None,
            )
            upper = next(
                (p for p in by_column.get(column, []) if p.op in ("<", "<=")),
                None,
            )
            for pred in (lower, upper):
                if pred is not None:
                    range_predicates.append((pred.op, pred.value))
                    covered.append(pred)
        if not covered:
            continue
        selectivity = _covered_selectivity(chunk, covered)
        if selectivity > INDEX_SELECTIVITY_CUTOFF:
            continue
        # Residuals drop each covered predicate *occurrence* exactly once
        # (by identity/position, not value) — a duplicate of a covered
        # predicate must still be evaluated on the probe result, so its
        # scan work is accounted.
        residual = list(predicates)
        for cov in covered:
            for i, p in enumerate(residual):
                if p is cov:
                    del residual[i]
                    break
        plan = IndexPlan(
            index=chunk.index(key),
            equal_values=equal_values,
            range_predicates=range_predicates,
            covered=covered,
            residual=residual,
            estimated_selectivity=selectivity,
        )
        score = (float(len(equal_values)), -selectivity, -float(len(key)))
        if best is None or score > best[0]:
            best = (score, plan)
    return best[1] if best else None


def chunk_can_be_pruned(chunk: Chunk, predicates: Sequence[Predicate]) -> bool:
    """Zone-map pruning from the chunk's own statistics: its min/max prove
    a predicate matches nothing here, so the chunk is skipped without
    touching data."""
    for pred in predicates:
        stats = chunk.statistics(pred.column)
        if stats.row_count == 0:
            return True
        lo, hi = stats.min_value, stats.max_value
        value = pred.value
        try:
            if pred.op == "=" and (value < lo or value > hi):
                return True
            if pred.op == "<" and not (lo < value):
                return True
            if pred.op == "<=" and not (lo <= value):
                return True
            if pred.op == ">" and not (hi > value):
                return True
            if pred.op == ">=" and not (hi >= value):
                return True
        except TypeError:
            # incomparable literal/bounds (mixed types): no pruning
            continue
    return False


def _positions(
    predicates: Sequence[Predicate], chosen: Sequence[Predicate]
) -> tuple[int, ...]:
    """Where each of ``chosen`` occurs in ``predicates``: an occurrence is
    its object, and each is taken once, in order."""
    taken: list[int] = []
    for pred in chosen:
        taken.append(
            next(
                i
                for i, p in enumerate(predicates)
                if p is pred and i not in taken
            )
        )
    return tuple(taken)


def compile_chunk_step(
    chunk: Chunk,
    predicates: Sequence[Predicate],
    output_width: float = 0.0,
) -> PlanStep:
    """Choose the access path for one chunk and freeze it into a step
    that names the predicates by position."""
    count = len(predicates)
    if predicates and chunk_can_be_pruned(chunk, predicates):
        return PlanStep(chunk.chunk_id, StepKind.PRUNE, count)
    plan = choose_index_plan(chunk, predicates) if predicates else None
    if plan is not None:
        covered = _positions(predicates, plan.covered)
        equal = covered[: len(plan.equal_values)]
        return PlanStep(
            chunk_id=chunk.chunk_id,
            kind=StepKind.INDEX_PROBE,
            predicate_count=count,
            scan_positions=tuple(
                i for i in range(count) if i not in covered
            ),
            index_key=plan.index.columns,
            equal_positions=equal,
            range_positions=covered[len(equal):],
            covered_count=len(plan.covered),
            estimated_selectivity=plan.estimated_selectivity,
            output_width=output_width,
        )
    return PlanStep(
        chunk.chunk_id,
        StepKind.FULL_SCAN,
        count,
        scan_positions=tuple(range(count)),
        output_width=output_width,
    )


def reference_compile(query: Query, table: Table) -> tuple[PlanStep, ...]:
    """The steps of ``query`` over ``table``, one chunk at a time."""
    projected: tuple[str, ...] = ()
    if query.aggregate is None:
        projected = (
            query.projection
            if query.projection is not None
            else tuple(table.schema.column_names)
        )
    return tuple(
        compile_chunk_step(
            chunk,
            query.predicates,
            chunk.projected_width(projected) if projected else 0.0,
        )
        for chunk in table.chunks()
    )


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


def execute_step(
    chunk: Chunk, step: PlanStep, predicates: Sequence[Predicate]
) -> ChunkScanResult:
    """Run one compiled step against the chunk's real data, reading the
    predicates it names from ``predicates``.

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
            [predicates[p].value for p in step.equal_positions],
            [(predicates[p].op, predicates[p].value) for p in step.range_positions],
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
            chunk, positions, [predicates[p] for p in step.scan_positions], result
        )
        return result

    # Sequential scan: evaluate each predicate on the still-live rows.
    result = ChunkScanResult(
        positions=np.arange(chunk.row_count, dtype=np.int64)
    )
    if not step.scan_positions:
        return result
    mask = np.ones(chunk.row_count, dtype=bool)
    live = chunk.row_count
    for pred in [predicates[p] for p in step.scan_positions]:
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
    return execute_step(chunk, compile_chunk_step(chunk, predicates), predicates)


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
    predicates = plan.query.predicates
    ran = []
    for chunk, step in zip(table.chunks(), plan.steps, strict=True):
        result = execute_step(chunk, step, predicates)
        ran.append((chunk, result))
        work.chunks_visited += 1
        if result.used_index:
            work.chunks_via_index += 1
        work.scan_units += result.scan_units
        work.probe_units += result.probe_units

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

    # only a query that ran on every chunk consults the pool, so one that
    # raised above leaves it as it found it; a non-DRAM chunk that hits
    # the pool behaves as DRAM; a probe only peeks, an accounted run
    # admits misses and refreshes hits
    for chunk, result in ran:
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
        scan_ms += hardware.scan_ms(result.scan_units, tier, threads)
        probe_ms += hardware.probe_ms(result.probe_units, tier)
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

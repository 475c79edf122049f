"""Per-chunk access-path choice, and the aggregate and work records.

For every chunk the planner either prunes (zone-map statistics disprove a
predicate), probes an index covering a prefix of the predicates (the rest
evaluated on the probe result), or scans segments (work weighted by their
encoding). Plan choice is selectivity-aware: an index probe expected to
return a large fraction of the chunk is worse than a scan, so the choice
estimates the covered predicates' selectivity from chunk statistics and
falls back to scanning above a cutoff.

:func:`compile_chunk_step` turns the per-chunk choice into an immutable
:class:`~repro.plan.ir.PlanStep`; it is called by
:class:`~repro.plan.planner.QueryPlanner`, the single place access paths
are chosen. The vectorized kernel (:mod:`repro.dbms.kernel`) runs the
compiled steps against the chunks' real data and prices them; the
physical cost model prices the same steps from statistics instead.
:func:`compute_aggregate` and :class:`WorkSummary` are what both report
through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dbms.chunk import Chunk
from repro.dbms.index import SortedCompositeIndex
from repro.plan.ir import PlanStep, StepKind
from repro.workload.predicate import Predicate

#: An index probe expected to match more than this fraction of the chunk is
#: rejected in favour of a scan.
INDEX_SELECTIVITY_CUTOFF = 0.15


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
    narrower index, then the smaller key tuple — a total order, so the
    choice is a function of which indexes exist and never of the order
    they were created (or dropped and re-created) in. Plans above
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
    """Zone-map pruning: chunk min/max statistics prove a predicate matches
    nothing here, so the chunk is skipped without touching data. This is
    what makes cold chunks nearly free to filter — and what concentrates
    index benefit on the hot chunks (Section II-B's chunk argument)."""
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


def compile_chunk_step(
    chunk: Chunk,
    predicates: list[Predicate] | tuple[Predicate, ...],
    output_width: float = 0.0,
) -> PlanStep:
    """Choose the access path for one chunk and freeze it into a step.

    This is the *only* place prune/index/scan decisions are made: the
    :class:`~repro.plan.planner.QueryPlanner` calls it per chunk, and the
    executor and cost models consume the resulting steps instead of
    re-deriving the choice. ``output_width`` is the per-row projected
    output byte width the caller computed from chunk statistics (0 when
    the query aggregates instead of projecting).
    """
    count = len(predicates)
    if predicates and chunk_can_be_pruned(chunk, predicates):
        return PlanStep(
            chunk_id=chunk.chunk_id,
            kind=StepKind.PRUNE,
            predicate_count=count,
        )
    plan = choose_index_plan(chunk, predicates) if predicates else None
    if plan is not None:
        return PlanStep(
            chunk_id=chunk.chunk_id,
            kind=StepKind.INDEX_PROBE,
            predicate_count=count,
            scan_predicates=tuple(plan.residual),
            index_key=plan.index.columns,
            equal_values=tuple(plan.equal_values),
            range_predicates=tuple(plan.range_predicates),
            covered_count=len(plan.covered),
            estimated_selectivity=plan.estimated_selectivity,
            output_width=output_width,
        )
    return PlanStep(
        chunk_id=chunk.chunk_id,
        kind=StepKind.FULL_SCAN,
        predicate_count=count,
        scan_predicates=tuple(predicates),
        output_width=output_width,
    )


@dataclass
class AggregateSpec:
    """A resolved aggregate: function name and (optional) input column."""

    function: str
    column: str | None = None


def compute_aggregate(
    chunk_values: list[np.ndarray], spec: AggregateSpec, total_rows: int
) -> float | str | None:
    """Combine per-chunk value arrays into one aggregate result."""
    if spec.function == "count":
        return float(total_rows)
    values = (
        np.concatenate(chunk_values)
        if chunk_values
        else np.zeros(0, dtype=np.float64)
    )
    if values.size == 0:
        return None
    if spec.function == "sum":
        return float(values.sum())
    if spec.function == "avg":
        return float(values.mean())
    if spec.function in ("min", "max"):
        if values.dtype.kind == "U":
            # numpy 2.x lacks min/max reductions on unicode arrays
            ordered = np.sort(values)
            return str(ordered[0] if spec.function == "min" else ordered[-1])
        return float(values.min() if spec.function == "min" else values.max())
    raise ValueError(f"unknown aggregate {spec.function!r}")


@dataclass
class WorkSummary:
    """Aggregated work counters across all chunks of one query execution."""

    scan_units: float = 0.0
    probe_units: float = 0.0
    output_bytes: float = 0.0
    aggregate_rows: int = 0
    rows_matched: int = 0
    chunks_visited: int = 0
    chunks_via_index: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0

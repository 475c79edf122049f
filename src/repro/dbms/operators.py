"""Access-path choice, and the aggregate and work records.

For every chunk a plan either prunes (zone-map statistics disprove a
predicate), probes an index covering a prefix of the predicates (the rest
evaluated on the probe result), or scans segments (work weighted by their
encoding). Plan choice is selectivity-aware: an index probe expected to
return a large fraction of the chunk is worse than a scan, so the choice
estimates the covered predicates' selectivity from chunk statistics and
falls back to scanning above a cutoff.

Most of that choice is the same for every literal of a query shape, so
:class:`AccessPaths` derives it once per shape and footprint — a scanned
chunk's step, and a probe that equalities alone cover, whose estimate is
1/distinct — and keeps it on the footprint. Per literal what is left is
:meth:`AccessPaths.prune`, one pass per predicate over the table's zone
maps (:meth:`~repro.dbms.table.Table.zones`), and
:meth:`AccessPaths.choose`, the probe choices a range literal decides.
The execution kernel's :func:`~repro.dbms.kernel.compile_plan`, which
:class:`~repro.plan.planner.QueryPlanner` calls, builds the steps and
binds them from these; the kernel runs them against the chunks' real
data and prices them, and the physical cost model prices the same steps
from statistics instead. :func:`compute_aggregate` and
:class:`WorkSummary` are what both report through. The per-chunk
compiler these replaced is the test oracle, in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.dbms.chunk import Chunk
from repro.plan.ir import PlanStep, StepKind
from repro.workload.predicate import Predicate
from repro.workload.query import Query

if TYPE_CHECKING:
    from repro.dbms.table import Table

#: An index probe expected to match more than this fraction of the chunk is
#: rejected in favour of a scan.
INDEX_SELECTIVITY_CUTOFF = 0.15


def _prune(
    op: str, pruned: Sequence[bool], bounds: tuple, v: object
) -> Sequence[bool]:
    """``pruned``, and the chunks whose ``(min, max)`` bounds prove
    ``<op> v`` matches no row. The comparisons are the statistics' own,
    in Python, so an int past 2**53 against a float bound compares
    exactly; a NaN bound (an all-NaN chunk's) disproves every ordered
    predicate, which no NaN row matches."""
    if op == "=":
        return [p or v < lo or v > hi for p, (lo, hi) in zip(pruned, bounds)]
    if op == "<":
        return [p or not lo < v for p, (lo, _hi) in zip(pruned, bounds)]
    if op == "<=":
        return [p or not lo <= v for p, (lo, _hi) in zip(pruned, bounds)]
    if op == ">":
        return [p or not hi > v for p, (_lo, hi) in zip(pruned, bounds)]
    if op == ">=":
        return [p or not hi >= v for p, (_lo, hi) in zip(pruned, bounds)]
    return pruned


def _refuses_float(value: object) -> bool:
    try:
        float(value)
    except Exception:
        return True
    return False


class _Candidate(NamedTuple):
    """An index a chunk could probe for a query shape."""

    key: tuple[str, ...]
    equal: tuple[int, ...]
    ranges: tuple[int, ...]
    residual: tuple[int, ...]
    #: the estimate from the equalities, which no literal enters
    selectivity: float


def _best(
    candidates: Sequence[_Candidate], selectivities: Sequence[float]
) -> tuple[int, float]:
    """The probe to take, as ``(position in candidates, selectivity)``:
    the longest equality prefix, then the lower estimate, then the
    narrower index — candidates come in key order, so a tie goes to the
    smaller key and never to creation order. ``(-1, 1.0)`` when every
    probe is expected to match more than
    :data:`INDEX_SELECTIVITY_CUTOFF` of the chunk."""
    best = (-1, 1.0)
    best_score = None
    for k, (candidate, selectivity) in enumerate(
        zip(candidates, selectivities)
    ):
        if selectivity > INDEX_SELECTIVITY_CUTOFF:
            continue
        score = (
            float(len(candidate.equal)),
            -selectivity,
            -float(len(candidate.key)),
        )
        if best_score is None or score > best_score:
            best, best_score = (k, selectivity), score
    return best


class AccessPaths:
    """Everything compile derives for one query shape over one footprint
    that no literal enters, derived once and kept on the footprint
    (:attr:`~repro.dbms.table.Footprint.paths`).

    A shape is the predicates' columns and operators in query order, plus
    the projection. Per chunk it holds the step taken when zone maps
    prune it and the step taken otherwise — a scan, or the probe that
    equalities alone cover, whose estimate is 1/distinct whatever the
    literal. Only an index a range predicate could probe leaves the
    choice to the literal (:meth:`choose`). ``layouts`` is what the
    execution kernel derives per set of live chunks
    (:func:`repro.dbms.kernel.compile_plan`).
    """

    __slots__ = (
        "chunks",
        "columns",
        "zones",
        "empty",
        "pruned_steps",
        "live_steps",
        "choosers",
        "checks",
        "checked",
        "layouts",
    )

    def __init__(
        self, table: "Table", predicates: Sequence[Predicate], projected: tuple
    ) -> None:
        chunks = self.chunks = table.chunks()
        n = len(predicates)
        columns = self.columns = tuple(p.column for p in predicates)
        ops = tuple(p.op for p in predicates)
        self.zones = tuple(table.zones(column) for column in columns)
        #: the chunks without rows, which any predicate prunes
        self.empty = self.zones[0].empty if n else (False,) * len(chunks)
        numeric = [table.schema.data_type(c).is_numeric for c in columns]
        by_column: dict[str, list[int]] = {}
        for position, column in enumerate(columns):
            by_column.setdefault(column, []).append(position)
        pruned_steps = []
        live_steps: list[PlanStep | None] = []
        choosers = []
        checks = []
        everything = tuple(range(n))
        for i, chunk in enumerate(chunks):
            width = chunk.projected_width(projected) if projected else 0.0
            cid = chunk.chunk_id
            pruned_steps.append(PlanStep(cid, StepKind.PRUNE, n))
            scan = PlanStep(
                cid, StepKind.FULL_SCAN, n, everything, output_width=width
            )
            candidates, checked = (
                _candidates(chunk, by_column, ops, numeric, n)
                if n
                else ((), ())
            )
            checks.append(checked)
            if any(c.ranges for c in candidates):
                choosers.append((i, chunk, candidates, scan, width))
                live_steps.append(None)
                continue
            k, selectivity = _best(
                candidates, [c.selectivity for c in candidates]
            )
            live_steps.append(
                scan
                if k < 0
                else _probe_step(cid, n, candidates[k], selectivity, width)
            )
        self.pruned_steps = tuple(pruned_steps)
        #: per chunk its step when live, or None where a literal decides
        self.live_steps = tuple(live_steps)
        self.choosers = tuple(choosers)
        #: per chunk, the positions whose literal the estimates of its
        #: candidate probes convert with float(), in the order they do
        self.checks = tuple(checks)
        self.checked = tuple(sorted({p for c in checks for p in c}))
        self.layouts: dict = {}

    def prune(self, predicates: Sequence[Predicate]) -> Sequence[bool]:
        """Which chunks the zone maps prune for these literals: one pass
        per predicate over every chunk's bounds."""
        pruned = self.empty
        for zone, pred in zip(self.zones, predicates):
            try:
                pruned = _prune(pred.op, pruned, zone.bounds, pred.value)
            except TypeError:
                # an incomparable literal (mixed types) prunes nothing:
                # every bound of a column has the column's type
                continue
        return pruned

    def choose(
        self, predicates: Sequence[Predicate], pruned: Sequence[bool]
    ) -> tuple[tuple[int, int, PlanStep], ...]:
        """What the literals decide among the live chunks: ``(chunk
        position, chosen candidate or -1 for a scan, step)`` of each chunk
        a range predicate could probe. Raises where estimating a probe
        converts a literal a numeric column refuses, at the first live
        chunk whose estimate meets it."""
        if self.checked:
            refused = [
                p for p in self.checked if _refuses_float(predicates[p].value)
            ]
            if refused:
                for i, checked in enumerate(self.checks):
                    if not pruned[i]:
                        for p in checked:
                            if p in refused:
                                float(predicates[p].value)
        chosen = []
        for i, chunk, candidates, scan, width in self.choosers:
            if pruned[i]:
                continue
            k, selectivity = _best(
                candidates,
                [_estimate(chunk, c, predicates) for c in candidates],
            )
            step = (
                scan
                if k < 0
                else _probe_step(
                    chunk.chunk_id,
                    len(predicates),
                    candidates[k],
                    selectivity,
                    width,
                )
            )
            chosen.append((i, k, step))
        return tuple(chosen)


def _candidates(
    chunk: Chunk,
    by_column: dict[str, list[int]],
    ops: tuple[str, ...],
    numeric: list[bool],
    n: int,
) -> tuple[tuple[_Candidate, ...], tuple[int, ...]]:
    """The indexes of ``chunk`` a query shape could probe, in key order,
    and the positions their estimates convert with float().

    An index applies when equalities cover a prefix of its key, optionally
    extended by range predicates (at most one lower and one upper bound)
    on the next key column; a pure range probe on the first column also
    qualifies. A probe that equalities alone cover and that is expected
    to match more than :data:`INDEX_SELECTIVITY_CUTOFF` of the chunk is
    never taken, whatever the literal, so it is left out.
    """
    candidates = []
    checked: list[int] = []
    for key in sorted(chunk.index_keys()):
        equal = []
        for column in key:
            eq = next(
                (p for p in by_column.get(column, ()) if ops[p] == "="), None
            )
            if eq is None:
                break
            equal.append(eq)
        ranges = []
        if len(equal) < len(key):
            at = by_column.get(key[len(equal)], ())
            for side in ((">", ">="), ("<", "<=")):
                bound = next((p for p in at if ops[p] in side), None)
                if bound is not None:
                    ranges.append(bound)
        covered = equal + ranges
        if not covered:
            continue
        checked.extend(p for p in covered if numeric[p])
        selectivity = 1.0
        for column in key[: len(equal)]:
            selectivity *= chunk.statistics(column).equal_selectivity()
        if not ranges and selectivity > INDEX_SELECTIVITY_CUTOFF:
            continue
        candidates.append(
            _Candidate(
                key,
                tuple(equal),
                tuple(ranges),
                tuple(p for p in range(n) if p not in covered),
                selectivity,
            )
        )
    return tuple(candidates), tuple(checked)


def _estimate(
    chunk: Chunk, candidate: _Candidate, predicates: Sequence[Predicate]
) -> float:
    """A candidate probe's estimated selectivity under these literals:
    the equalities' estimate, times the range's from the histogram — a
    two-sided range on a numeric column estimated jointly, since the
    independence product would grossly overestimate ``BETWEEN``."""
    selectivity = candidate.selectivity
    if not candidate.ranges:
        return selectivity
    bounds = [predicates[p] for p in candidate.ranges]
    stats = chunk.statistics(bounds[0].column)
    if len(bounds) == 2 and stats.data_type.is_numeric:
        return selectivity * stats.between_selectivity(
            float(bounds[0].value), float(bounds[1].value)
        )
    for pred in bounds:
        selectivity *= stats.selectivity(pred.op, pred.value)
    return selectivity


def _probe_step(
    chunk_id: int,
    n: int,
    candidate: _Candidate,
    selectivity: float,
    width: float,
) -> PlanStep:
    return PlanStep(
        chunk_id,
        StepKind.INDEX_PROBE,
        n,
        candidate.residual,
        candidate.key,
        candidate.equal,
        candidate.ranges,
        len(candidate.equal) + len(candidate.ranges),
        selectivity,
        width,
    )


def access_paths(query: Query, table: "Table") -> AccessPaths:
    """The access paths of ``query``'s shape over ``table``'s footprint
    for its predicate columns, derived on first use."""
    footprint = table.footprint(query.predicate_columns)
    predicates = query.predicates
    # the columns too: a footprint holds names, which another column's
    # structures can share
    shape = (
        query.predicate_columns,
        tuple([p.op for p in predicates]),
        query.projection,
        query.aggregate is None,
    )
    paths = footprint.paths.get(shape)
    if paths is None:
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
        paths = footprint.paths[shape] = AccessPaths(
            table, predicates, projected
        )
    return paths


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

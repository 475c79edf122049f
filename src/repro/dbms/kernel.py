"""Plan compilation and the vectorized plan-execution kernel.

:func:`compile_plan` builds a plan's steps and binds them in one pass:
the query shape's :class:`~repro.dbms.operators.AccessPaths` give every
step no literal enters, and a layout per set of live chunks — kept with
them — gives the runs of scanned chunks, the probes and the fixed
charges, which no literal enters either. Per literal it binds each run's
predicates over the table's rows and each probe's lookup, and the
planner keeps the result in the plan's ``memo``.

:func:`run_plan` is the executor's one execution path, the batched form
of a per-chunk loop, and runs from that memo. Each execution is three
passes:

1. **Data pass** — the pruned majority of steps never enters it: their
   zone-map charges are the layout's fixed charges. Each maximal *run*
   of consecutive scanned chunks is evaluated at
   once over the table's rows (:meth:`~repro.dbms.table.Table.rows`):
   one ufunc per predicate over the run's row slice, each predicate bound
   once per compiled plan and run, the masks combined with ``&=``, and
   per-chunk match counts taken only where a charge or the output size
   reads them. Each chunk is still charged its own segments' scan units,
   predicate by predicate until its matches run out — the scalar loop's
   float sequence. Index probes and predicate-less scans run per step,
   against the chunk's own index and segments.
2. **Tier pass** — only the table's chunks outside DRAM consult the
   buffer pool, walked once in chunk order, preserving the exact LRU
   admission order of the scalar path; an all-DRAM table never asks.
3. **Pricing pass** — one pure-Python pass: the fixed charges, priced
   once per plan at the DRAM multiplier, are copied, the surviving steps
   and the pool misses are priced over them, and every total is an
   explicit ``+=`` in chunk order, so every float lands bit-identically
   to the scalar path's per-chunk accumulation.

Bit-identical simulated results are the kernel's contract — the golden
tests in ``tests/plan/test_kernel_golden.py`` compare every report field
against the per-chunk loop, kept as the scalar reference in
``tests/reference.py`` and swapped in at ``repro.dbms.executor.run_plan``.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dbms.hardware import NS_PER_MS, HardwareProfile
from repro.dbms.operators import (
    AccessPaths,
    AggregateSpec,
    WorkSummary,
    access_paths,
)
from repro.dbms.segments import ColumnRows, Segment, _compare_array
from repro.dbms.storage_tiers import StorageTier
from repro.plan.ir import PRUNE_CHECK_UNITS, PhysicalPlan, PlanStep, StepKind
from repro.workload.predicate import Predicate
from repro.workload.query import Query

if TYPE_CHECKING:
    from repro.dbms.executor import BufferPool
    from repro.dbms.table import Table


class _Span:
    """A maximal run of consecutive scanned chunks, over the table-wide
    rows ``start:stop``: what execution charges a run and splits it by,
    which no literal enters."""

    __slots__ = (
        "positions",
        "row_bytes",
        "start",
        "stop",
        "offsets",
        "rows",
        "segments",
        "first_charges",
        "charges",
    )

    def __init__(
        self,
        table: "Table",
        paths: AccessPaths,
        starts: list[int],
        steps: list[PlanStep],
        positions: tuple[int, ...],
    ) -> None:
        chunks = paths.chunks
        start = starts[positions[0]]
        self.positions = positions
        #: per chunk, the projected output bytes of a matched row
        self.row_bytes = tuple(steps[i].output_width for i in positions)
        self.start = start
        self.stop = starts[positions[-1] + 1]
        #: each chunk's first row within the run
        self.offsets = np.array(
            [starts[i] - start for i in positions],
            dtype=np.int32 if self.stop - start < 2**31 else np.int64,
        )
        #: per predicate, in evaluation order, the table-wide rows and the
        #: run's segments of its column
        self.rows = tuple(table.rows(column) for column in paths.columns)
        self.segments = tuple(
            [chunks[i].segment(column) for i in positions]
            for column in paths.columns
        )
        # every chunk is alive at the first predicate: its charge is a
        # constant
        self.first_charges = [
            (0.0 + segment.scan_units(chunks[i].row_count))
            + segment.scan_overhead_units()
            for segment, i in zip(self.segments[0], positions)
        ]
        #: per later predicate, per chunk ``(scan_units, overhead)``
        self.charges = tuple(
            tuple((s.scan_units, s.scan_overhead_units()) for s in segments)
            for segments in self.segments[1:]
        )


class _Run:
    """A span with each predicate bound over its rows for one query's
    literals."""

    __slots__ = ("span", "first", "raised", "rest")

    def __init__(self, span: _Span, predicates: tuple[Predicate, ...]) -> None:
        self.span = span
        start, stop = span.start, span.stop
        bound = []
        for pred, rows, segments in zip(predicates, span.rows, span.segments):
            op, value = pred.op, pred.value
            if rows.exact(value):
                bound.append((rows.bind_slice(start, stop, op, value), ()))
            else:
                bound.append(_bind_each(segments, op, value))
        self.first, raisers = bound[0]
        # its first raising chunk raises at the first predicate
        self.raised = raisers[0] if raisers else None
        #: ``(mask, per-chunk (scan_units, overhead), raisers)`` of every
        #: later predicate
        self.rest = tuple(
            (mask, charges, raisers)
            for (mask, raisers), charges in zip(bound[1:], span.charges)
        )


def _bind_each(
    segments: list[Segment], op: str, value: object
) -> tuple:
    """A literal some encoding answers its own way (:meth:`ColumnRows.exact`
    is false): each chunk's mask as its own segment computes it, settled
    now — the plan's footprint fixes every segment for the plan's life.
    A chunk whose compare raises contributes no rows; ``(position in run,
    compare)`` of each such chunk is returned beside the mask, for the
    execution to raise from if the scalar loop would reach it."""
    masks = []
    raisers = []
    for k, segment in enumerate(segments):
        try:
            masks.append(segment.compare(op, value))
        except Exception:
            # deferred, not handled: whatever the compare raises, calling
            # it again raises where the scalar loop would meet it
            masks.append(np.zeros(len(segment), dtype=bool))
            raisers.append((k, partial(segment.compare, op, value)))
    return np.concatenate(masks).copy, tuple(raisers)


class _Layout:
    """What execution derives from one set of live chunks and probe
    choices of an :class:`AccessPaths`, which no literal enters: the
    steps; the spans of scanned chunks and the probes in plan order —
    a probe, or a scan without predicates, as ``(position, output width,
    index, probed columns, per residual (take, scan_units, overhead),
    position of its literals' signature)``; each step's fixed charge —
    the zone-map checks of a pruned step, 0 elsewhere, where the data
    pass fills in the work — and the index-probe count."""

    __slots__ = ("steps", "items", "spans", "signatures", "fixed", "index_count")

    def __init__(
        self,
        table: "Table",
        paths: AccessPaths,
        pruned: Sequence[bool],
        chosen: tuple[tuple[int, int, PlanStep], ...],
    ) -> None:
        steps = list(paths.live_steps)
        for i, step in enumerate(paths.pruned_steps):
            if pruned[i]:
                steps[i] = step
        for i, _k, step in chosen:
            steps[i] = step
        self.steps = tuple(steps)
        #: each chunk's first row in the table, and the row count at the end
        starts = [0]
        for chunk in paths.chunks:
            starts.append(starts[-1] + chunk.row_count)
        items: list = []
        #: per probe kind, the positions of its equalities, ranges and
        #: residuals — the literals it is bound with
        signatures: dict[tuple, int] = {}
        fixed: list[float] = []
        index_count = 0
        run: list[int] = []
        for i, step in enumerate(steps):
            kind = step.kind
            if kind is StepKind.PRUNE:
                fixed.append(PRUNE_CHECK_UNITS * step.predicate_count)
            else:
                fixed.append(0.0)
                if kind is StepKind.FULL_SCAN and step.scan_positions:
                    # a run extends over adjacent scans: every scan of a
                    # plan evaluates all its predicates in query order
                    run.append(i)
                    continue
            if run:
                items.append(_Span(table, paths, starts, steps, tuple(run)))
                run.clear()
            if kind is StepKind.PRUNE:
                continue
            if kind is StepKind.FULL_SCAN:
                items.append((i, step.output_width, None, 0, (), -1))
                continue
            index_count += 1
            chunk = paths.chunks[i]
            # residuals filter the values gathered at the probed rows
            methods = []
            for p in step.scan_positions:
                segment = chunk.segment(paths.columns[p])
                methods.append(
                    (segment.take, segment.scan_units, segment.scan_overhead_units())
                )
            signature = (
                step.equal_positions,
                step.range_positions,
                step.scan_positions,
            )
            items.append(
                (
                    i,
                    step.output_width,
                    chunk.index(step.index_key),
                    step.probed_columns,
                    tuple(methods),
                    signatures.setdefault(signature, len(signatures)),
                )
            )
        if run:
            items.append(_Span(table, paths, starts, steps, tuple(run)))
        self.items = tuple(items)
        #: where in ``items`` the spans are
        self.spans = tuple(
            k for k, item in enumerate(items) if type(item) is _Span
        )
        self.signatures = tuple(signatures)
        self.fixed = tuple(fixed)
        self.index_count = index_count

    def for_literals(self, predicates: tuple[Predicate, ...]) -> tuple:
        """``(items, literals, fixed charges, index-probe count)`` for one
        query's literals: each span bound as a :class:`_Run`, and per
        probe signature the values of its lookup's equalities, its
        ranges' ``(op, value)`` and its residuals' ``(op, value)``."""
        items = self.items
        if self.spans:
            items = list(items)
            for k in self.spans:
                items[k] = _Run(items[k], predicates)
        literals = tuple(
            [
                (
                    tuple([predicates[p].value for p in equal]),
                    tuple([(predicates[p].op, predicates[p].value) for p in ranges]),
                    tuple([(predicates[p].op, predicates[p].value) for p in scan]),
                )
                for equal, ranges, scan in self.signatures
            ]
        )
        return items, literals, self.fixed, self.index_count


def compile_plan(query: Query, table: "Table") -> tuple[tuple[PlanStep, ...], tuple]:
    """Compile ``query`` against ``table``: ``(steps, bound)``, where
    ``bound`` is what :func:`run_plan` executes the steps from.

    The shape's :class:`AccessPaths` hold every step no literal enters,
    and a :class:`_Layout` per set of live chunks everything execution
    derives from them; what is left per literal is one zone-map pass
    per predicate, the probe choices a range decides, and binding the
    predicates over the live spans.
    """
    predicates = query.predicates
    paths = access_paths(query, table)
    pruned = paths.prune(predicates)
    chosen = paths.choose(predicates, pruned)
    key = bytes(pruned)
    if chosen:
        key = (key, tuple([k for _i, k, _step in chosen]))
    layout = paths.layouts.get(key)
    if layout is None:
        layout = paths.layouts[key] = _Layout(table, paths, pruned, chosen)
    steps = layout.steps
    if chosen:
        # a range's estimate is the literal's: the steps are this plan's
        steps = list(steps)
        for i, _k, step in chosen:
            steps[i] = step
        steps = tuple(steps)
    return steps, layout.for_literals(predicates)


def _popcounts(mask: np.ndarray, offsets: np.ndarray) -> list[int]:
    """Matches per chunk of a run's mask."""
    if len(offsets) == 1:
        return [int(np.count_nonzero(mask))]
    # the accumulator is the offsets' dtype: int32 unless the run's rows
    # overflow it, and then twice as fast as an int64 one
    return np.add.reduceat(
        mask.view(np.uint8), offsets, dtype=offsets.dtype
    ).tolist()


def _projected(
    rows: ColumnRows, run: _Span, mask: np.ndarray, counts: list[int]
) -> np.ndarray:
    """A run's matched rows of one projected column, in the dtype the
    scalar loop's concatenation of per-chunk gathers has: a string column
    is as wide as its widest matched chunk."""
    part = rows.take(run.start, run.stop, mask)
    if rows.widths:
        width = max(
            w for w, n in zip(rows.widths[run.positions[0]:], counts) if n
        )
        if part.dtype.itemsize != 4 * width:
            part = part.astype(f"<U{width}")
    return part


def run_plan(
    plan: PhysicalPlan,
    table: "Table",
    pool: "BufferPool",
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
    """Run one compiled plan batched; returns what the executor tail needs:
    ``(work, scan_ms, probe_ms, agg_values, out_columns)``."""
    steps = plan.steps
    chunks = table.chunks()
    n = len(steps)
    if len(chunks) != n:
        # mirror the scalar loop's zip(..., strict=True) contract
        raise ValueError(
            f"plan has {n} steps but table {table.name!r} has "
            f"{len(chunks)} chunks"
        )

    # Per-plan binding, filled by compile: runs of scanned chunks with
    # each predicate bound over the run's slice of the table-wide rows;
    # index probes with their index, literals and residuals' segment
    # methods. Sound because the planner finds this plan — and with it
    # this memo — again only under a footprint that names, chunk by
    # chunk, the row order, encodings and indexes bound here
    # (Table.footprint), and a name fixes a structure's content; the
    # table-wide rows are a function of the row order alone. An append
    # changes the footprint too. A plan restored from a pickle carries no
    # memo and binds again, to the same steps.
    memo = plan.memo
    bound = memo.get("bound")
    if bound is None:
        bound = memo["bound"] = compile_plan(plan.query, table)[1]
    items, literals, fixed, index_count = bound

    work = WorkSummary()
    work.chunks_visited = n
    work.chunks_via_index = index_count

    agg_values: list[np.ndarray] = []
    collect_output = agg_spec is None
    take_agg = agg_spec is not None and agg_spec.column is not None
    # row *positions* are only materialised when something consumes them —
    # aggregate input gathers or projected output; count-only executions
    # settle for the mask popcount (results are unchanged, the scalar path
    # merely discarded the positions it built)
    need_positions = take_agg or (collect_output and materialize)
    out_columns: dict[str, list[np.ndarray]] = (
        {name: [] for name in projected}
        if materialize and collect_output
        else {}
    )
    rows_matched = 0
    output_bytes = 0.0
    #: per surviving step: (position, scan units, probe units)
    live_work: list[tuple[int, float, float]] = []

    # -- data pass: runs of scanned chunks at once, other steps one by one
    for item in items:
        if type(item) is _Run:
            run = item.span
            mask = item.first()
            su = run.first_charges.copy()
            raised = item.raised
            for bound_mask, charges, raisers in item.rest:
                # the scalar loop charges predicate j on a chunk's rows
                # alive after j - 1, and stops at a chunk with none
                counts = _popcounts(mask, run.offsets)
                alive = False
                for k, count in enumerate(counts):
                    if count:
                        alive = True
                        scan_units, overhead = charges[k]
                        su[k] += scan_units(count)
                        su[k] += overhead
                if not alive:
                    break
                for k, compare in raisers:
                    if counts[k]:
                        if raised is None or k < raised[0]:
                            raised = (k, compare)
                        break
                mask &= bound_mask()
            if raised is not None:
                # the first chunk the scalar loop raises at, raising anew
                raised[1]()
            live_work.extend(zip(run.positions, su, repeat(0.0)))
            if collect_output:
                counts = _popcounts(mask, run.offsets)
                count = 0
                for k, matched in enumerate(counts):
                    if matched:
                        count += matched
                        output_bytes += matched * run.row_bytes[k]
            else:
                count = int(np.count_nonzero(mask))
            rows_matched += count
            if count == 0:
                continue
            if take_agg:
                agg_values.append(
                    table.rows(agg_spec.column).take(run.start, run.stop, mask)
                )
            elif collect_output and materialize:
                for name in projected:
                    out_columns[name].append(
                        _projected(table.rows(name), run, mask, counts)
                    )
            continue

        i, width, index, probed, methods, signature = item
        chunk = chunks[i]
        su = 0.0
        pu = 0.0
        positions = None
        if index is not None:
            equal_values, range_predicates, residual = literals[signature]
            positions = index.lookup(equal_values, range_predicates).astype(
                np.int64
            )
            pu = index.probe_cost_units(probed, len(positions))
            for (take, scan_units, overhead), (op, value) in zip(
                methods, residual
            ):
                if len(positions) == 0:
                    break
                su += scan_units(len(positions))
                su += overhead
                values = take(positions)
                positions = positions[_compare_array(values, op, value)]
            count = len(positions)
        else:
            count = chunk.row_count
            if need_positions and count:
                positions = np.arange(chunk.row_count, dtype=np.int64)
        live_work.append((i, su, pu))
        rows_matched += count
        if count == 0:
            continue
        if take_agg:
            agg_values.append(chunk.segment(agg_spec.column).take(positions))
        elif collect_output:
            # the scalar loop only folds chunks with matches (zero-match
            # chunks `continue` before the charge), and a skipped `+= 0.0`
            # is a float identity anyway
            output_bytes += count * width
            if materialize:
                for name in projected:
                    out_columns[name].append(
                        chunk.segment(name).take(positions)
                    )

    work.rows_matched = rows_matched
    if collect_output:
        work.output_bytes = output_bytes

    # -- tier pass: batched buffer-pool resolution ----------------------
    # Only chunks outside DRAM (scanned for once per placement) consult
    # the pool, in chunk order — the scalar path's LRU admission sequence.
    # A hit prices as DRAM; a miss is kept with its tier's multiplier.
    tier_multiplier = hardware.tier_multiplier
    table_name = table.name
    missed: dict[int, float] = {}
    hits = 0
    for i, chunk in table.nondram():
        key = (table_name, chunk.chunk_id)
        if pool.peek(key) if probe else pool.access(key, chunk.data_bytes()):
            hits += 1
        else:
            missed[i] = tier_multiplier[chunk.tier]
    work.buffer_hits = hits
    work.buffer_misses = len(missed)

    # -- pricing pass ---------------------------------------------------
    # Pure Python, which beats numpy at plan sizes (a table has tens of
    # chunks). Every expression matches hardware.scan_ms/probe_ms term by
    # term and every total is an explicit += in chunk order, the scalar
    # loop's own left fold (the builtin is not one since Python 3.12).
    dram = tier_multiplier[StorageTier.DRAM]
    ns_scan = hardware.ns_per_scan_unit
    ns_probe = hardware.ns_per_probe_unit
    speedup = max(1.0, float(threads)) ** hardware.parallel_efficiency_exponent
    # the fixed charges price to constants at the DRAM multiplier
    key = (ns_scan, dram, speedup)
    priced_cached = memo.get("priced")
    if priced_cached is None or priced_cached[0] != key:
        base = [u * ns_scan * dram / speedup / NS_PER_MS for u in fixed]
        memo["priced"] = priced_cached = (key, base)
    priced = priced_cached[1].copy()
    units = list(fixed)
    probe_ms = 0.0
    probe_units = 0.0
    for i, su, pu in live_work:
        units[i] = su
        priced[i] = su * ns_scan * dram / speedup / NS_PER_MS
        if pu:
            probe_ms += pu * ns_probe * missed.get(i, dram) / NS_PER_MS
            probe_units += pu
    for i, multiplier in missed.items():
        priced[i] = units[i] * ns_scan * multiplier / speedup / NS_PER_MS
    scan_ms = 0.0
    for value in priced:
        scan_ms += value
    scan_units = 0.0
    for value in units:
        scan_units += value
    work.scan_units = scan_units
    work.probe_units = probe_units
    return work, scan_ms, probe_ms, agg_values, out_columns

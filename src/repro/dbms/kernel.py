"""The vectorized plan-execution kernel.

:func:`run_plan` is the batched counterpart of the executor's historical
per-chunk loop. It consumes the compile-time arrays a plan carries
(:class:`~repro.plan.kernel.PlanKernel`) and restructures one execution
into three passes:

1. **Data pass** — only the *surviving* (non-pruned) steps are visited in
   Python; index probes and mask-kernel predicate evaluation run against
   real segment data exactly as the scalar path would, with predicate
   triples pre-bound at compile time so no per-chunk re-dispatch happens.
   The pruned majority of steps never enters the loop: their zone-map
   charges were frozen into ``fixed_scan_units`` at compile time.
2. **Tier pass** — buffer-pool tier resolution is batched: a table whose
   chunks are all DRAM-resident resolves to one scalar multiplier without
   consulting the pool; otherwise only the chunk sequence is walked once,
   preserving the exact LRU admission order of the scalar path.
3. **Pricing pass** — per-step scan/probe work is converted to simulated
   milliseconds with whole-plan array arithmetic and summed with a strict
   left-fold, so every float lands bit-identically to the scalar path's
   per-chunk ``+=`` accumulation.

Bit-identical simulated results are the kernel's contract — the golden
tests in ``tests/plan/test_kernel_golden.py`` compare every report field
against the retained scalar reference path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dbms.hardware import NS_PER_MS, HardwareProfile
from repro.dbms.operators import AggregateSpec, WorkSummary
from repro.dbms.segments import _compare_array
from repro.dbms.storage_tiers import StorageTier
from repro.plan.ir import PhysicalPlan, StepKind

if TYPE_CHECKING:
    from repro.dbms.executor import BufferPool
    from repro.dbms.table import Table


def _left_fold(values: np.ndarray) -> float:
    """Strict sequential sum: bit-identical to scalar ``+=`` in order.

    ``np.cumsum`` computes every prefix, which forces the left-to-right
    association the scalar accumulation used (``np.sum``'s pairwise
    reduction would not).
    """
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


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
    kern = plan.kernel()
    chunks = table.chunks()
    n = kern.size
    if len(chunks) != n:
        # mirror the scalar loop's zip(..., strict=True) contract
        raise ValueError(
            f"plan has {n} steps but table {table.name!r} has "
            f"{len(chunks)} chunks"
        )

    work = WorkSummary()
    work.chunks_visited = n
    work.chunks_via_index = kern.index_count
    work.per_chunk = list(kern.per_chunk)

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
    #: per surviving step: (position, scan units, probe units, rows, width)
    live_work: list[tuple[int, float, float, int, float]] = []

    # Per-kernel pre-binding: segment/index objects and their charge
    # methods resolved once per compiled plan. Sound because the planner
    # finds this plan — and with it this cache — again only under a
    # footprint that names, chunk by chunk, the row order, encodings and
    # indexes bound here (Table.footprint), and a name fixes a structure's
    # content; a chunk's structure memo usually hands back the very same
    # object. An append changes the footprint too.
    bound = kern.cache.get("bound")
    if bound is None:
        bound = []
        for live in kern.live:
            chunk = chunks[live.position]
            preds = tuple(
                (
                    segment.compare,
                    segment.take,
                    segment.scan_units,
                    segment.scan_overhead_units(),
                    op,
                    value,
                )
                for column, op, value in live.predicates
                for segment in (chunk.segment(column),)
            )
            index = (
                chunk.index(live.index_key)
                if live.step.kind is StepKind.INDEX_PROBE
                else None
            )
            bound.append((index, preds))
        kern.cache["bound"] = bound

    # -- data pass: only surviving steps touch segments -----------------
    for live, (index, preds) in zip(kern.live, bound):
        i = live.position
        chunk = chunks[i]
        su = 0.0
        pu = 0.0
        positions = None
        if index is not None:
            positions = index.lookup(
                live.equal_values, live.range_predicates
            ).astype(np.int64)
            pu = index.probe_cost_units(
                live.probed_columns, len(positions)
            )
            for _compare, take, scan_units, overhead, op, value in preds:
                if len(positions) == 0:
                    break
                su += scan_units(len(positions))
                su += overhead
                values = take(positions)
                positions = positions[_compare_array(values, op, value)]
            count = len(positions)
        elif preds:
            # the first compare result *is* the mask (ones & x == x), so
            # the all-true seed array is never allocated; charges precede
            # each compare exactly as in the scalar loop
            mask = None
            alive = chunk.row_count
            for compare, _take, scan_units, overhead, op, value in preds:
                su += scan_units(alive)
                su += overhead
                if mask is None:
                    mask = compare(op, value)
                else:
                    mask &= compare(op, value)
                # same integer as int(mask.sum()), cheaper popcount
                alive = int(np.count_nonzero(mask))
                if alive == 0:
                    break
            count = alive
            if need_positions and count:
                # == np.flatnonzero(mask) without the ravel/dispatch hops
                positions = mask.nonzero()[0]
        else:
            count = chunk.row_count
            if need_positions and count:
                positions = np.arange(chunk.row_count, dtype=np.int64)
        live_work.append((i, su, pu, count, live.width))
        rows_matched += count
        if count == 0:
            continue
        if take_agg:
            agg_values.append(chunk.segment(agg_spec.column).take(positions))
        elif collect_output and materialize:
            for name in projected:
                out_columns[name].append(chunk.segment(name).take(positions))

    work.rows_matched = rows_matched
    if collect_output:
        # the scalar loop only folds chunks with matches (zero-match chunks
        # `continue` before the charge), and a skipped `+= 0.0` is a float
        # identity anyway
        output_bytes = 0.0
        for _i, _su, _pu, count, width in live_work:
            if count:
                output_bytes += count * width
        work.output_bytes = output_bytes

    # -- tier pass: batched buffer-pool resolution ----------------------
    # the table scans for chunks outside DRAM once per placement
    nondram = table.nondram()

    dram_multiplier = hardware.tier_multiplier[StorageTier.DRAM]
    ns_scan = hardware.ns_per_scan_unit
    ns_probe = hardware.ns_per_probe_unit
    speedup = max(1.0, float(threads)) ** hardware.parallel_efficiency_exponent

    # -- pricing pass ---------------------------------------------------
    if not nondram:
        # All-DRAM fast path: one scalar multiplier, the pool is never
        # consulted, and the fixed charges price to constants — memoised
        # per (coefficient, multiplier, speedup) and folded in pure Python.
        # Every expression matches hardware.scan_ms/probe_ms term by term,
        # and Python's sum()/+= over floats is the same left fold the
        # scalar loop accumulates.
        key = (ns_scan, dram_multiplier, speedup)
        priced_cached = kern.cache.get("priced")
        if priced_cached is None or priced_cached[0] != key:
            base = [
                u * ns_scan * dram_multiplier / speedup / NS_PER_MS
                for u in kern.fixed_scan_tuple
            ]
            kern.cache["priced"] = priced_cached = (key, base)
        priced = priced_cached[1].copy()
        units = list(kern.fixed_scan_tuple)
        for i, su, _pu, _count, _width in live_work:
            units[i] = su
            priced[i] = su * ns_scan * dram_multiplier / speedup / NS_PER_MS
        scan_ms = 0.0
        for value in priced:
            scan_ms += value
        work.scan_units = sum(units)
        probe_ms = 0.0
        probe_total = 0.0
        for _i, _su, pu, _count, _width in live_work:
            if pu:
                probe_ms += pu * ns_probe * dram_multiplier / NS_PER_MS
                probe_total += pu
        work.probe_units = probe_total
        return work, scan_ms, probe_ms, agg_values, out_columns

    # Mixed tiers: the pool must be consulted per non-DRAM chunk, in chunk
    # order, preserving the scalar path's LRU admission sequence; pricing
    # is whole-plan array arithmetic with a strict left-fold reduction.
    scan_units = kern.fixed_units_array().copy()
    probe_units = np.zeros(n, dtype=np.float64) if kern.index_count else None
    for i, su, pu, _count, _width in live_work:
        scan_units[i] = su
        if pu:
            probe_units[i] = pu
    tier_multiplier = hardware.tier_multiplier
    table_name = table.name
    resolved = np.full(n, dram_multiplier, dtype=np.float64)
    hits = misses = 0
    for i, chunk in nondram:
        key = (table_name, chunk.chunk_id)
        if probe:
            hit = pool.peek(key)
        else:
            hit = pool.access(key, chunk.data_bytes())
        if hit:
            hits += 1
        else:
            misses += 1
            resolved[i] = tier_multiplier[chunk.tier]
    work.buffer_hits = hits
    work.buffer_misses = misses

    scan_ms = _left_fold(
        scan_units * ns_scan * resolved / speedup / NS_PER_MS
    )
    if probe_units is None:
        probe_ms = 0.0
    else:
        probe_ms = _left_fold(
            probe_units * ns_probe * resolved / NS_PER_MS
        )
        work.probe_units = _left_fold(probe_units)
    work.scan_units = _left_fold(scan_units)
    return work, scan_ms, probe_ms, agg_values, out_columns

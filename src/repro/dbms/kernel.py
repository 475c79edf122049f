"""The vectorized plan-execution kernel.

:func:`run_plan` is the batched counterpart of the executor's historical
per-chunk loop. It consumes the compile-time arrays a plan carries
(:class:`~repro.plan.kernel.PlanKernel`) and restructures one execution
into three passes:

1. **Data pass** — only the *surviving* (non-pruned) steps are visited in
   Python; index probes and mask-kernel predicate evaluation run against
   real segment data exactly as the scalar path would, with each scan
   predicate bound to its segment once per compiled plan
   (:meth:`~repro.dbms.segments.Segment.bind`), so an execution runs one
   integer ufunc per predicate per chunk. The pruned majority of steps
   never enters the loop: their zone-map charges were frozen into
   ``fixed_scan_tuple`` at compile time.
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

    # Per-kernel pre-binding: indexes, charge methods and each scan
    # predicate's mask (Segment.bind: the literal met its segment once)
    # resolved once per compiled plan. Sound because the planner
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
            segments = [
                (chunk.segment(column), op, value)
                for column, op, value in live.predicates
            ]
            if live.step.kind is StepKind.INDEX_PROBE:
                # residuals filter the values gathered at the probed rows
                index = chunk.index(live.index_key)
                preds = tuple(
                    (s.take, s.scan_units, s.scan_overhead_units(), op, value)
                    for s, op, value in segments
                )
            else:
                index = None
                preds = tuple(
                    (s.bind(op, value), s.scan_units, s.scan_overhead_units())
                    for s, op, value in segments
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
            for take, scan_units, overhead, op, value in preds:
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
            for bound_mask, scan_units, overhead in preds:
                su += scan_units(alive)
                su += overhead
                if mask is None:
                    mask = bound_mask()
                else:
                    mask &= bound_mask()
                # the scalar loop's popcount, cheaper than a reduction
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
    priced_cached = kern.cache.get("priced")
    if priced_cached is None or priced_cached[0] != key:
        base = [
            u * ns_scan * dram / speedup / NS_PER_MS
            for u in kern.fixed_scan_tuple
        ]
        kern.cache["priced"] = priced_cached = (key, base)
    priced = priced_cached[1].copy()
    units = list(kern.fixed_scan_tuple)
    probe_ms = 0.0
    probe_units = 0.0
    for i, su, pu, _count, _width in live_work:
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

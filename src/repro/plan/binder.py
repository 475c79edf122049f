"""Bind-time resolution: the plan facts that must stay out of the plan.

A chunk's effective storage tier depends on the buffer pool's *current*
contents, which change with every admission — baking it into a compiled
plan would force a recompile on every pool movement. Instead, the
physical cost model resolves the tier per pricing through
:func:`resolve_tier`: a non-DRAM chunk that hits the pool behaves as DRAM
for this access. It only peeks — analytic pricing leaves no trace in the
pool. The kernel's tier pass (:mod:`repro.dbms.kernel`) applies the same
rule inline, admitting misses on an accounted execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dbms.storage_tiers import StorageTier

if TYPE_CHECKING:
    from repro.dbms.chunk import Chunk
    from repro.dbms.executor import BufferPool


def resolve_tier(
    chunk: "Chunk", table_name: str, pool: "BufferPool"
) -> StorageTier:
    """Effective tier of ``chunk`` for one access: DRAM when it is
    DRAM-resident or its non-DRAM copy sits in the pool, else its own."""
    tier = chunk.tier
    if tier is StorageTier.DRAM:
        return tier
    if pool.peek((table_name, chunk.chunk_id)):
        return StorageTier.DRAM
    return tier

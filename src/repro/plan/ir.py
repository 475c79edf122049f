"""The physical-plan intermediate representation.

A :class:`PhysicalPlan` is the compiled form of one query against one
table's current physical design: an ordered list of per-chunk
:class:`PlanStep` objects, one per chunk, each choosing exactly one of
three access paths:

- :attr:`StepKind.PRUNE` — zone-map statistics disprove a predicate, so
  the chunk is skipped after charging only the metadata check;
- :attr:`StepKind.INDEX_PROBE` — a composite index covers a predicate
  prefix; the probe result is filtered by the residual predicates;
- :attr:`StepKind.FULL_SCAN` — sequential predicate evaluation over the
  chunk's segments.

The IR deliberately contains only *compile-time-stable* facts: step
kinds, index key columns (not index objects — re-encodes and sorts replace
a chunk's indexes, so they are looked up again at bind time), the
positions of the query's predicates each step evaluates (never their
literals, so one step object serves every literal of a query shape),
estimated selectivities, and per-row output widths from chunk
statistics. Storage tier and buffer-pool residency are **not** part
of a plan — they change with every pool admission and are resolved per
access by whoever consumes the plan: the execution kernel's tier pass
(:mod:`repro.dbms.kernel`) and the physical cost model
(:mod:`repro.cost.physical`). That split is what lets one compiled plan
be shared by the query executor (which runs it against real data), the
physical cost model (which prices it from statistics), and the what-if
optimizer's probe path — and lets it stay cached across buffer-pool
traffic. What execution derives from the steps — the bound runs of
scanned chunks and probes, which compile fills in as it builds the
steps, the fixed prune charges, the priced constants — is kept in the
plan's :attr:`PhysicalPlan.memo`, which no pickle carries.

Like :mod:`repro.workload.query`, this module imports nothing from the
DBMS substrate, so every layer can depend on it without cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.workload.query import Query


class StepKind(enum.Enum):
    """The access path a plan chose for one chunk."""

    PRUNE = "prune"
    INDEX_PROBE = "index_probe"
    FULL_SCAN = "full_scan"


#: Metadata work charged for consulting chunk min/max statistics — a
#: compile-time pricing fact, owned by the plan layer so the execution
#: kernel and the physical cost model charge the identical amount.
PRUNE_CHECK_UNITS = 0.5


class PlanStep(NamedTuple):
    """The compiled access path for one chunk.

    A step names the query's predicates by their position in
    :attr:`~repro.workload.query.Query.predicates`, never by copying
    their literals, so the step of a scanned chunk — and of a probe that
    equalities alone cover — is one object for every literal of a query
    shape and is derived once per footprint. For ``INDEX_PROBE`` steps,
    ``index_key``/``equal_positions``/``range_positions`` describe the
    probe and ``scan_positions`` the residual predicates evaluated on the
    probe result (in evaluation order). For ``FULL_SCAN`` steps,
    ``scan_positions`` is every predicate in evaluation order. ``PRUNE``
    steps carry only ``predicate_count`` (the zone-map checks charged).
    """

    chunk_id: int
    kind: StepKind
    #: number of query predicates (PRUNE steps charge one zone-map check each)
    predicate_count: int
    #: positions of the predicates evaluated by scanning, in evaluation order
    scan_positions: tuple[int, ...] = ()
    #: key columns of the probed index (INDEX_PROBE only)
    index_key: tuple[str, ...] | None = None
    #: positions of the equalities on the probe's key prefix
    equal_positions: tuple[int, ...] = ()
    #: positions of the range bounds on the key column after the prefix
    range_positions: tuple[int, ...] = ()
    #: number of predicates the probe covers
    covered_count: int = 0
    #: estimated fraction of chunk rows the probe returns
    estimated_selectivity: float = 1.0
    #: per-row projected output bytes from chunk statistics (0 for aggregates)
    output_width: float = 0.0

    @property
    def probed_columns(self) -> int:
        """Index key columns the probe actually constrains."""
        return len(self.equal_positions) + (1 if self.range_positions else 0)


@dataclass(frozen=True)
class PhysicalPlan:
    """One compiled query plan: per-chunk steps plus identifying metadata."""

    table: str
    query: Query
    steps: tuple[PlanStep, ...]
    #: what consumers derive from the steps once per plan — the bound runs,
    #: probes and fixed charges compile fills in, the executor's aggregate
    #: spec and projection, the kernel's priced constants; memoised
    #: derivations only, so mutable on the frozen dataclass by design and
    #: emptied in every pickle
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __getstate__(self) -> dict[str, object]:
        # the next execution binds again; pickled, the memo would carry
        # every segment and index the plan ever bound
        return {**self.__dict__, "memo": {}}

    def step_kinds(self) -> tuple[StepKind, ...]:
        """Per-chunk access-path kinds, in chunk order."""
        return tuple(step.kind for step in self.steps)

    def count(self, kind: StepKind) -> int:
        return sum(1 for step in self.steps if step.kind is kind)

    @property
    def pruned_chunks(self) -> int:
        return self.count(StepKind.PRUNE)

    @property
    def index_chunks(self) -> int:
        return self.count(StepKind.INDEX_PROBE)

    @property
    def scanned_chunks(self) -> int:
        return self.count(StepKind.FULL_SCAN)

    def __repr__(self) -> str:
        return (
            f"PhysicalPlan(table={self.table!r}, chunks={len(self.steps)}, "
            f"prune={self.pruned_chunks}, index={self.index_chunks}, "
            f"scan={self.scanned_chunks})"
        )

"""Compile-time kernel arrays derived from a :class:`PhysicalPlan`.

The executor's hot path used to re-discover the same per-step facts on
every execution: which chunks are pruned, what each prune charge is, the
per-row output width, the access-path tag recorded per chunk. All of
those are compile-time-stable, so the :class:`PlanKernel` freezes them
(pre-bound predicate triples, per-step fixed charges, the per-chunk
trace) exactly once per compiled plan. The batched executor kernel
(:mod:`repro.dbms.kernel`) then visits only the *surviving* (non-pruned)
chunks in Python and prices the plan in one pass over the frozen
charges, which settle the pruned majority.

Like the rest of the plan layer this module imports nothing from the
DBMS substrate, so the arrays can be shared by the executor, the cost
models, and what-if probing without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.plan.ir import (
    PRUNE_CHECK_UNITS,
    PhysicalPlan,
    PlanStep,
    StepKind,
)

@dataclass(frozen=True)
class LiveStep:
    """One non-pruned step, with its predicates pre-bound for the kernel."""

    #: position of the step in the plan (== chunk position in the table)
    position: int
    step: PlanStep
    #: ``(column, op, value)`` triples of ``step.scan_predicates``, in
    #: evaluation order — unpacked once so the per-execution loop never
    #: touches Predicate attributes
    predicates: tuple[tuple[str, str, object], ...]
    #: the step's per-row projected output width, pre-bound as a float
    width: float
    #: pre-bound probe arguments (INDEX_PROBE steps; empty/zero otherwise)
    index_key: tuple[str, ...] | None
    equal_values: tuple[object, ...]
    range_predicates: tuple[tuple[str, object], ...]
    probed_columns: int


@dataclass(frozen=True)
class PlanKernel:
    """Per-plan compile-time facts the batched executor kernel runs from.

    Compilation happens once per (footprint, query) while executions of a
    cached plan repeat, so construction stays a single pure-Python pass.
    """

    #: number of steps (== chunks the plan was compiled against)
    size: int
    #: per-step compile-time scan-unit charges as plain Python floats: the
    #: zone-map check cost for PRUNE steps, 0 elsewhere (data-dependent
    #: work is filled at run time)
    fixed_scan_tuple: tuple[float, ...]
    #: ``(chunk_id, kind)`` per step — the WorkSummary.per_chunk trace
    per_chunk: tuple[tuple[int, StepKind], ...]
    #: the non-PRUNE steps, in plan order
    live: tuple[LiveStep, ...]
    #: number of INDEX_PROBE steps
    index_count: int
    #: scratch space for per-execution caches the executor kernel maintains
    #: (bound predicates and indexes, priced fixed charges keyed by pricing
    #: coefficients); mutable on the frozen dataclass by design — it holds
    #: memoised derivations only
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __getstate__(self) -> dict[str, object]:
        # the scratch is rebuilt by the next execution; pickled, it would
        # carry every segment and index the plan ever bound
        return {**self.__dict__, "cache": {}}

    @classmethod
    def from_plan(cls, plan: PhysicalPlan) -> "PlanKernel":
        steps = plan.steps
        fixed: list[float] = []
        per_chunk: list[tuple[int, StepKind]] = []
        live: list[LiveStep] = []
        index_count = 0
        for i, step in enumerate(steps):
            kind = step.kind
            per_chunk.append((step.chunk_id, kind))
            if kind is StepKind.PRUNE:
                fixed.append(PRUNE_CHECK_UNITS * step.predicate_count)
                continue
            fixed.append(0.0)
            if kind is StepKind.INDEX_PROBE:
                index_count += 1
            live.append(
                LiveStep(
                    position=i,
                    step=step,
                    predicates=tuple(
                        (p.column, p.op, p.value)
                        for p in step.scan_predicates
                    ),
                    width=float(step.output_width),
                    index_key=step.index_key,
                    equal_values=step.equal_values,
                    range_predicates=step.range_predicates,
                    probed_columns=step.probed_columns,
                )
            )
        return cls(
            size=len(steps),
            fixed_scan_tuple=tuple(fixed),
            per_chunk=tuple(per_chunk),
            live=tuple(live),
            index_count=index_count,
        )

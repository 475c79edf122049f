"""Queries and their value-free logical representation (query templates).

The plan cache stores concrete :class:`Query` executions; the workload
predictor's first step transforms them "into an abstract logical
representation of query templates to remove unnecessary information"
(Section II-C). :meth:`Query.template` is exactly that transform: literals
are stripped, predicate order is normalised, and the result is hashable so
it can key forecasts, clusters, and plan-cache aggregation.

Like :mod:`repro.workload.predicate`, this module imports nothing from the
DBMS substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.workload.predicate import Predicate

#: Aggregates the execution engine can evaluate.
AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class QueryTemplate:
    """The logical shape of a query: everything except literal values."""

    table: str
    #: sorted ``(column, op)`` pairs of the conjunctive predicates
    predicate_signature: tuple[tuple[str, str], ...]
    #: projected columns, or None for ``SELECT *``
    projection: tuple[str, ...] | None = None
    aggregate: str | None = None
    aggregate_column: str | None = None

    @property
    def key(self) -> str:
        """A stable string key for plan caches and forecast series."""
        preds = " AND ".join(f"{c} {op} ?" for c, op in self.predicate_signature)
        if self.aggregate:
            target = self.aggregate_column or "*"
            head = f"{self.aggregate.upper()}({target})"
        elif self.projection is None:
            head = "*"
        else:
            head = ", ".join(self.projection)
        where = f" WHERE {preds}" if preds else ""
        return f"SELECT {head} FROM {self.table}{where}"

    @property
    def predicate_columns(self) -> tuple[str, ...]:
        return tuple(c for c, _op in self.predicate_signature)

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class Query:
    """A concrete, executable single-table query.

    Supports conjunctive comparison predicates, optional projection, and an
    optional aggregate — the query shapes the framework's physical-design
    features (indexes, encodings, placement) react to.
    """

    table: str
    predicates: tuple[Predicate, ...] = ()
    projection: tuple[str, ...] | None = None
    aggregate: str | None = None
    aggregate_column: str | None = None
    #: free-form tag used by generators to label query families
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.aggregate is not None:
            if self.aggregate not in AGGREGATES:
                raise ValueError(
                    f"unknown aggregate {self.aggregate!r}; expected one of "
                    f"{AGGREGATES}"
                )
            if self.aggregate != "count" and self.aggregate_column is None:
                raise ValueError(f"aggregate {self.aggregate!r} needs a column")

    def template(self) -> QueryTemplate:
        """Strip literal values and normalise predicate order."""
        signature = tuple(sorted(p.signature() for p in self.predicates))
        return QueryTemplate(
            table=self.table,
            predicate_signature=signature,
            projection=self.projection,
            aggregate=self.aggregate,
            aggregate_column=self.aggregate_column,
        )

    @cached_property
    def predicate_columns(self) -> tuple[str, ...]:
        # memoised like the hash: read on every plan and cost lookup
        return tuple(p.column for p in self.predicates)

    def __hash__(self) -> int:
        # memoised: queries are immutable and hashed hot — plan-cache and
        # what-if cost-cache lookups on every execution — and the generated
        # dataclass hash re-walks the predicate tuple each call. Hashes
        # exactly the compare fields (``tag`` is compare=False), so the
        # hash/eq contract of the generated pair is preserved.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(
                (
                    self.table,
                    self.predicates,
                    self.projection,
                    self.aggregate,
                    self.aggregate_column,
                )
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # the hash memo is salted per interpreter (str hashing), so a
        # pickled memo is wrong in any other process — e.g. a run
        # resumed from a durable fleet checkpoint, where a stale memo
        # would turn every restored plan/cost-cache key into a miss
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("predicate_columns", None)
        return state

    def __str__(self) -> str:
        if self.aggregate:
            target = self.aggregate_column or "*"
            head = f"{self.aggregate.upper()}({target})"
        elif self.projection is None:
            head = "*"
        else:
            head = ", ".join(self.projection)
        where = ""
        if self.predicates:
            where = " WHERE " + " AND ".join(str(p) for p in self.predicates)
        return f"SELECT {head} FROM {self.table}{where}"

"""Tuning candidates.

"Candidates can be of various forms to represent different types, i.e.,
physical design features or knobs. For discrete problems, for example for
index selection, candidates would be a set of lists … of attributes. For
continuous problems, e.g., the decision about the buffer pool size,
candidates are specified by providing the start and the end of a range …
and the smallest available intervals" (Section II-D.a).

Every candidate knows the :class:`~repro.configuration.actions.Action` list
that realises it. Candidates may belong to an *exclusion group* — at most
one member of a group can be selected — and groups may be *required*
(exactly one must be selected), which is how alternatives like "encoding of
column X" or "tier of chunk 3" are modelled uniformly across selectors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.configuration.actions import (
    Action,
    CreateIndexAction,
    MoveChunkAction,
    SetEncodingAction,
    SetKnobAction,
    SortChunkAction,
    describe_scope,
)
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier


class Candidate(ABC):
    """One selectable configuration option."""

    #: name of the feature this candidate belongs to
    feature: str = "unknown"

    @abstractmethod
    def actions(self) -> list[Action]:
        """Actions that realise this candidate."""

    @property
    def group(self) -> str | None:
        """Exclusion group (at most/exactly one member selected), if any."""
        return None

    @property
    def group_required(self) -> bool:
        """Whether the group must have exactly one selected member."""
        return False

    @abstractmethod
    def describe(self) -> str:
        """Human-readable one-line summary."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class IndexCandidate(Candidate):
    """An index over a list of attributes, optionally chunk-scoped."""

    table: str
    columns: tuple[str, ...]
    chunk_ids: tuple[int, ...] | None = None

    feature = "index_selection"

    def actions(self) -> list[Action]:
        return [CreateIndexAction(self.table, self.columns, self.chunk_ids)]

    def describe(self) -> str:
        scope = describe_scope(self.chunk_ids)
        return f"index {self.table}({', '.join(self.columns)}) [{scope}]"


@dataclass(frozen=True)
class EncodingCandidate(Candidate):
    """An encoding choice for one column (whole table or chunk subset)."""

    table: str
    column: str
    encoding: EncodingType
    chunk_ids: tuple[int, ...] | None = None

    feature = "compression"

    def actions(self) -> list[Action]:
        return [
            SetEncodingAction(self.table, self.column, self.encoding, self.chunk_ids)
        ]

    @property
    def group(self) -> str:
        scope = "*" if self.chunk_ids is None else ",".join(map(str, self.chunk_ids))
        return f"encoding:{self.table}.{self.column}[{scope}]"

    @property
    def group_required(self) -> bool:
        return True

    def describe(self) -> str:
        scope = describe_scope(self.chunk_ids)
        return (
            f"encode {self.table}.{self.column} as {self.encoding.value} "
            f"[{scope}]"
        )


@dataclass(frozen=True)
class PlacementCandidate(Candidate):
    """A storage tier choice for one chunk."""

    table: str
    chunk_id: int
    tier: StorageTier

    feature = "data_placement"

    def actions(self) -> list[Action]:
        return [MoveChunkAction(self.table, self.chunk_id, self.tier)]

    @property
    def group(self) -> str:
        return f"placement:{self.table}[{self.chunk_id}]"

    @property
    def group_required(self) -> bool:
        return True

    def describe(self) -> str:
        return f"place {self.table}[{self.chunk_id}] on {self.tier.value}"


@dataclass(frozen=True)
class SortOrderCandidate(Candidate):
    """A physical sort order (by one column) for a chunk scope.

    At most one sort order can hold per chunk scope, so candidates form an
    optional exclusion group: selecting none keeps the current row order
    (the ingest order is not part of a configuration instance).
    """

    table: str
    column: str
    chunk_ids: tuple[int, ...] | None = None

    feature = "sort_order"

    def actions(self) -> list[Action]:
        return [SortChunkAction(self.table, self.column, self.chunk_ids)]

    @property
    def group(self) -> str:
        scope = "*" if self.chunk_ids is None else ",".join(map(str, self.chunk_ids))
        return f"sort:{self.table}[{scope}]"

    def describe(self) -> str:
        scope = describe_scope(self.chunk_ids)
        return f"sort {self.table} by {self.column} [{scope}]"


@dataclass(frozen=True)
class KnobCandidate(Candidate):
    """One settable value of a knob (a point from its range)."""

    name: str
    value: float
    feature_name: str = "knobs"

    @property
    def feature(self) -> str:  # type: ignore[override]
        return self.feature_name

    def actions(self) -> list[Action]:
        return [SetKnobAction(self.name, self.value)]

    @property
    def group(self) -> str:
        return f"knob:{self.name}"

    @property
    def group_required(self) -> bool:
        return True

    def describe(self) -> str:
        return f"set {self.name} = {self.value}"

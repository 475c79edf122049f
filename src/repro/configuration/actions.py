"""Configuration actions: the atomic steps that change a database's
configuration instance.

An action is the one implementation of its change. A subclass gives
:meth:`Action.estimate_cost_ms` — the one-time cost of applying it now
(the "reconfiguration costs" of Section II-D.b) — and
:meth:`Action.apply_raw` — the mutation, unaccounted, returning the
inverse actions that roll it back. Every configuration change in the
system is those two in that order, followed by
``Database._record_reconfiguration`` unless it is a what-if:
:meth:`Action.apply` (behind the ``Database`` primitives), the tuning
executor, what-if evaluation. See docs/components.md, "Changing the
configuration".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from repro.dbms.chunk import Chunk
from repro.dbms.database import Database
from repro.dbms.knobs import BUFFER_POOL_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier, migration_cost_ms
from repro.errors import PlacementError

#: Simulated cost of flipping a knob (a latch plus a config write).
_KNOB_APPLY_MS = 0.05
#: Simulated cost of dropping one chunk's index (unlink + deallocate).
_INDEX_DROP_MS = 0.02


def describe_scope(chunk_ids: Sequence[int] | None) -> str:
    """How a chunk scope reads in descriptions (``None`` = all chunks)."""
    return "all chunks" if chunk_ids is None else f"chunks {list(chunk_ids)}"


class Action(ABC):
    """One atomic configuration change."""

    def apply(self, db: Database) -> float:
        """Accounted application: price (before the mutation — estimates
        are state-dependent), apply raw, record as one reconfiguration.
        Returns the one-time cost."""
        cost = self.estimate_cost_ms(db)
        self.apply_raw(db)
        return db._record_reconfiguration(cost, 1)

    @abstractmethod
    def apply_raw(self, db: Database) -> list["Action"]:
        """Apply without accounting; returns inverse actions (newest last).

        Nothing has to be told: the compiled-plan and what-if caches key
        on what a query reads (``Table.footprint``, tiers, pool membership,
        ``scan_threads``), which is exactly what the mutations below
        change. A no-op application (state already as requested) returns
        no inverse.
        """

    @abstractmethod
    def estimate_cost_ms(self, db: Database) -> float:
        """One-time cost of applying this action now."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable one-line summary."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class CreateIndexAction(Action):
    table: str
    columns: tuple[str, ...]
    #: None applies to all chunks
    chunk_ids: tuple[int, ...] | None = None

    def apply_raw(self, db: Database) -> list[Action]:
        table = db.table(self.table)
        touched = table.create_index(list(self.columns), self.chunk_ids)
        if not touched:
            return []
        return [
            DropIndexAction(
                self.table,
                self.columns,
                tuple(c.chunk_id for c in touched),
            )
        ]

    def estimate_cost_ms(self, db: Database) -> float:
        return sum(
            db.hardware.index_build_ms(c.row_count, len(self.columns), c.tier)
            for c in db.table(self.table).resolve_chunks(self.chunk_ids)
            if not c.has_index(self.columns)
        )

    def describe(self) -> str:
        scope = describe_scope(self.chunk_ids)
        return f"CREATE INDEX ON {self.table}({', '.join(self.columns)}) [{scope}]"


@dataclass(frozen=True)
class DropIndexAction(Action):
    table: str
    columns: tuple[str, ...]
    chunk_ids: tuple[int, ...] | None = None

    def apply_raw(self, db: Database) -> list[Action]:
        table = db.table(self.table)
        touched = table.drop_index(list(self.columns), self.chunk_ids)
        if not touched:
            return []
        return [
            CreateIndexAction(
                self.table,
                self.columns,
                tuple(c.chunk_id for c in touched),
            )
        ]

    def estimate_cost_ms(self, db: Database) -> float:
        chunks = db.table(self.table).resolve_chunks(self.chunk_ids)
        return _INDEX_DROP_MS * sum(c.has_index(self.columns) for c in chunks)

    def describe(self) -> str:
        scope = describe_scope(self.chunk_ids)
        return f"DROP INDEX ON {self.table}({', '.join(self.columns)}) [{scope}]"


@dataclass(frozen=True)
class SetEncodingAction(Action):
    table: str
    column: str
    encoding: EncodingType
    chunk_ids: tuple[int, ...] | None = None

    def _changing(self, db: Database) -> list[Chunk]:
        return [
            chunk
            for chunk in db.table(self.table).resolve_chunks(self.chunk_ids)
            if chunk.encoding_of(self.column) is not self.encoding
        ]

    def apply_raw(self, db: Database) -> list[Action]:
        reverted: dict[EncodingType, list[int]] = {}
        for chunk in self._changing(db):
            old = chunk.encoding_of(self.column)
            chunk.set_encoding(self.column, self.encoding)
            db.executor.buffer_pool.invalidate((self.table, chunk.chunk_id))
            reverted.setdefault(old, []).append(chunk.chunk_id)
        return [
            SetEncodingAction(self.table, self.column, old, tuple(ids))
            for old, ids in reverted.items()
        ]

    def estimate_cost_ms(self, db: Database) -> float:
        cost = 0.0
        for chunk in self._changing(db):
            cost += db.hardware.encode_ms(chunk.row_count, self.encoding, chunk.tier)
            # re-encoding rebuilds every index whose key holds the column
            for key in chunk.index_keys():
                if self.column in key:
                    cost += db.hardware.index_build_ms(
                        chunk.row_count, len(key), chunk.tier
                    )
        return cost

    def describe(self) -> str:
        scope = describe_scope(self.chunk_ids)
        return (
            f"SET ENCODING {self.table}.{self.column} = "
            f"{self.encoding.value} [{scope}]"
        )


@dataclass(frozen=True)
class MoveChunkAction(Action):
    table: str
    chunk_id: int
    tier: StorageTier

    def _chunk(self, db: Database) -> Chunk:
        chunk = db.table(self.table).chunk(self.chunk_id)
        if not isinstance(self.tier, StorageTier):
            raise PlacementError(f"unknown storage tier {self.tier!r}")
        return chunk

    def apply_raw(self, db: Database) -> list[Action]:
        chunk = self._chunk(db)
        old = chunk.tier
        if old is self.tier:
            return []
        chunk.tier = self.tier
        db.executor.buffer_pool.invalidate((self.table, self.chunk_id))
        return [MoveChunkAction(self.table, self.chunk_id, old)]

    def estimate_cost_ms(self, db: Database) -> float:
        chunk = self._chunk(db)
        return migration_cost_ms(chunk.memory_bytes(), chunk.tier, self.tier)

    def describe(self) -> str:
        return (
            f"MOVE CHUNK {self.table}[{self.chunk_id}] -> {self.tier.value}"
        )


@dataclass(frozen=True)
class SortChunkAction(Action):
    """Physically sort chunks by one column (intra-chunk row reordering)."""

    table: str
    column: str
    chunk_ids: tuple[int, ...] | None = None

    def _changing(self, db: Database) -> list[Chunk]:
        return [
            chunk
            for chunk in db.table(self.table).resolve_chunks(self.chunk_ids)
            if chunk.sort_column != self.column
        ]

    def apply_raw(self, db: Database) -> list[Action]:
        inverse: list[Action] = []
        for chunk in self._changing(db):
            previous_sort = chunk.sort_column
            permutation, _rebuilt = chunk.sort_by(self.column)
            db.executor.buffer_pool.invalidate((self.table, chunk.chunk_id))
            inverse.append(
                PermuteChunkAction(
                    self.table, chunk.chunk_id, permutation, previous_sort
                )
            )
        return inverse

    def estimate_cost_ms(self, db: Database) -> float:
        width = len(db.table(self.table).schema.columns)
        cost = 0.0
        for chunk in self._changing(db):
            cost += db.hardware.sort_rows_ms(chunk.row_count, width, chunk.tier)
            # sorting rebuilds every index of the chunk
            for key in chunk.index_keys():
                cost += db.hardware.index_build_ms(
                    chunk.row_count, len(key), chunk.tier
                )
        return cost

    def describe(self) -> str:
        scope = describe_scope(self.chunk_ids)
        return f"SORT {self.table} BY {self.column} [{scope}]"


@dataclass(eq=False)
class PermuteChunkAction(Action):
    """Restore a specific row order (the inverse of a raw sort).

    Only produced as the rollback token of :meth:`SortChunkAction.apply_raw`
    — it carries the concrete permutation, so it is process-local and not
    part of any configuration instance.
    """

    table: str
    chunk_id: int
    permutation: object  # numpy array; eq=False keeps dataclass semantics sane
    sort_column: str | None

    def apply_raw(self, db: Database) -> list[Action]:
        chunk = db.table(self.table).chunk(self.chunk_id)
        chunk.apply_permutation(self.permutation, self.sort_column)
        db.executor.buffer_pool.invalidate((self.table, self.chunk_id))
        return []  # rollback tokens are one-shot

    def estimate_cost_ms(self, db: Database) -> float:
        del db
        return 0.0

    def describe(self) -> str:
        return f"RESTORE ORDER {self.table}[{self.chunk_id}]"


@dataclass(frozen=True)
class SetKnobAction(Action):
    name: str
    value: float

    def apply_raw(self, db: Database) -> list[Action]:
        old = db.knobs.get(self.name)
        if old == self.value:
            return []
        db.knobs.set(self.name, self.value)
        if self.name == BUFFER_POOL_KNOB:
            db.executor.sync_buffer_pool()
        return [SetKnobAction(self.name, old)]

    def estimate_cost_ms(self, db: Database) -> float:
        del db
        return _KNOB_APPLY_MS

    def describe(self) -> str:
        return f"SET KNOB {self.name} = {self.value}"

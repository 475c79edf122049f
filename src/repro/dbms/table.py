"""Chunked columnar tables.

A table is an append-only sequence of :class:`~repro.dbms.chunk.Chunk`
objects of bounded size. All physical-design operations accept an optional
chunk-id list so tuners can act on fractions of a column's data — the paper's
argument for chunking (Section II-B): index only the hot chunks, compress
only the cold ones.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.dbms.chunk import Chunk
from repro.dbms.schema import TableSchema
from repro.dbms.segments import ColumnRows
from repro.dbms.statistics import ColumnStatistics
from repro.dbms.storage_tiers import StorageTier
from repro.dbms.types import coerce_array
from repro.errors import SchemaError

DEFAULT_TARGET_CHUNK_SIZE = 65_536


class ZoneMap(NamedTuple):
    """One column's chunk bounds in chunk order, from chunk statistics:
    per chunk its ``(min, max)`` — a NaN or ``""`` pair, of the column's
    type, where a chunk has no rows — and whether it has none."""

    bounds: tuple[tuple[object, object], ...]
    empty: tuple[bool, ...]

    @classmethod
    def of(cls, stats: Sequence[ColumnStatistics], numeric: bool) -> "ZoneMap":
        blank = float("nan") if numeric else ""
        return cls(
            tuple(
                (s.min_value, s.max_value) if s.row_count else (blank, blank)
                for s in stats
            ),
            tuple(s.row_count == 0 for s in stats),
        )


class Footprint:
    """What a query with predicates on some columns reads from a table, by
    name: the table and every chunk's :meth:`~repro.dbms.chunk.Chunk.footprint`.

    A value — equal footprints mean equal compiled plans and equal scan
    and probe work, which is why caches key on it — that hashes once, not
    once per lookup: every query executed pays for one. ``paths`` holds
    the compiler's literal-free access paths per query shape
    (:class:`~repro.dbms.operators.AccessPaths`): they are a function of
    what the footprint names, so they live exactly as long as it does,
    and no pickle carries them. A table hands out one object per value
    while any holds it, so a design that a what-if leaves and returns to
    finds its paths again.
    """

    __slots__ = ("table", "chunks", "paths", "_hash", "__weakref__")

    def __init__(self, table: "Table", chunks: tuple) -> None:
        self.table = table
        self.chunks = chunks
        self.paths: dict = {}
        self._hash = hash(chunks)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Footprint
            and self.table is other.table
            and self.chunks == other.chunks
        )

    def __reduce__(self):
        # string hashes are salted per process: hash again on load
        return Footprint, (self.table, self.chunks)


class Table:
    """A chunked, columnar, append-only table."""

    def __init__(
        self,
        schema: TableSchema,
        target_chunk_size: int = DEFAULT_TARGET_CHUNK_SIZE,
    ) -> None:
        if target_chunk_size <= 0:
            raise SchemaError("target_chunk_size must be positive")
        self._schema = schema
        self._target_chunk_size = target_chunk_size
        self._chunks: list[Chunk] = []
        self._next_chunk_id = 0
        #: what has been derived from the chunks' physical state and still
        #: holds: footprints by predicate-column tuple, under ``None`` the
        #: non-DRAM scan, under ``"rows"`` the table-wide rows by column
        #: and under ``"zones"`` the zone maps by column. Every chunk holds
        #: this dict and drops from it what a mutation of its own outdates.
        self._derived: dict = {}
        #: every footprint some holder keeps alive, by the names it holds
        self._footprints: weakref.WeakValueDictionary = (
            weakref.WeakValueDictionary()
        )

    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__.copy()
        del state["_derived"], state["_footprints"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._derived = {}
        self._footprints = weakref.WeakValueDictionary()
        for chunk in self._chunks:
            chunk._derived = self._derived

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._schema.name

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def target_chunk_size(self) -> int:
        return self._target_chunk_size

    @property
    def row_count(self) -> int:
        return sum(chunk.row_count for chunk in self._chunks)

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def chunks(self) -> tuple[Chunk, ...]:
        return tuple(self._chunks)

    def chunk(self, chunk_id: int) -> Chunk:
        for c in self._chunks:
            if c.chunk_id == chunk_id:
                return c
        raise SchemaError(f"table {self.name!r} has no chunk {chunk_id}")

    def chunk_ids(self) -> tuple[int, ...]:
        return tuple(c.chunk_id for c in self._chunks)

    def resolve_chunks(self, chunk_ids: Sequence[int] | None) -> list[Chunk]:
        """The chunks a physical-design scope names (``None`` = all)."""
        if chunk_ids is None:
            return list(self._chunks)
        return [self.chunk(cid) for cid in chunk_ids]

    def footprint(self, columns: tuple[str, ...]) -> Footprint:
        """What a query with predicates on ``columns`` reads. Memoised
        until a chunk changes something it names or rows are appended,
        which keeps a lookup to one dictionary hit.
        """
        footprint = self._derived.get(columns)
        if footprint is None:
            names = tuple([chunk.footprint(columns) for chunk in self._chunks])
            footprint = self._footprints.get(names)
            if footprint is None:
                footprint = self._footprints[names] = Footprint(self, names)
            self._derived[columns] = footprint
        return footprint

    def nondram(self) -> tuple[tuple[int, Chunk], ...]:
        """``(position, chunk)`` of every chunk outside DRAM — the ones
        whose price depends on the buffer pool (memoised until a chunk
        changes tier or rows are appended)."""
        nondram = self._derived.get(None)
        if nondram is None:
            nondram = self._derived[None] = tuple(
                (i, chunk)
                for i, chunk in enumerate(self._chunks)
                if chunk.tier is not StorageTier.DRAM
            )
        return nondram

    def rows(self, column: str) -> ColumnRows:
        """``column``'s rows across every chunk, in chunk order. A function
        of the row order alone, so re-encodes, index changes and tier moves
        keep it; memoised until rows are appended or a chunk's rows are
        permuted."""
        by_column = self._derived.get("rows")
        if by_column is None:
            by_column = self._derived["rows"] = {}
        rows = by_column.get(column)
        if rows is None:
            rows = by_column[column] = ColumnRows(
                [chunk.segment(column) for chunk in self._chunks]
            )
        return rows

    def zones(self, column: str) -> ZoneMap:
        """``column``'s chunk bounds in chunk order. A function of the
        chunks' data alone, as chunk statistics are, so re-encodes, index
        changes, tier moves and sorts keep it; memoised until rows are
        appended."""
        by_column = self._derived.get("zones")
        if by_column is None:
            by_column = self._derived["zones"] = {}
        zones = by_column.get(column)
        if zones is None:
            zones = by_column[column] = ZoneMap.of(
                [chunk.statistics(column) for chunk in self._chunks],
                self._schema.data_type(column).is_numeric,
            )
        return zones

    # ------------------------------------------------------------------
    # ingestion

    def append(self, columns: Mapping[str, Sequence | np.ndarray]) -> list[int]:
        """Append rows given as column arrays; returns new chunk ids."""
        if set(columns) != set(self._schema.column_names):
            raise SchemaError(
                f"append columns {sorted(columns)} do not match schema "
                f"{sorted(self._schema.column_names)}"
            )
        coerced = {
            name: coerce_array(values, self._schema.data_type(name))
            for name, values in columns.items()
        }
        lengths = {len(arr) for arr in coerced.values()}
        if len(lengths) != 1:
            raise SchemaError("ragged column lengths in append")
        total = lengths.pop()
        new_ids: list[int] = []
        for start in range(0, total, self._target_chunk_size):
            stop = min(start + self._target_chunk_size, total)
            chunk = Chunk(
                self._next_chunk_id,
                self._schema,
                {name: arr[start:stop] for name, arr in coerced.items()},
                derived=self._derived,
            )
            self._chunks.append(chunk)
            new_ids.append(self._next_chunk_id)
            self._next_chunk_id += 1
        self._derived.clear()
        return new_ids

    # ------------------------------------------------------------------
    # physical design, applied per chunk

    def create_index(
        self, columns: Sequence[str], chunk_ids: Sequence[int] | None = None
    ) -> list[Chunk]:
        """Create an index on the given chunks; returns the chunks touched."""
        touched = []
        for chunk in self.resolve_chunks(chunk_ids):
            if not chunk.has_index(columns):
                chunk.create_index(columns)
                touched.append(chunk)
        return touched

    def drop_index(
        self, columns: Sequence[str], chunk_ids: Sequence[int] | None = None
    ) -> list[Chunk]:
        touched = []
        for chunk in self.resolve_chunks(chunk_ids):
            if chunk.has_index(columns):
                chunk.drop_index(columns)
                touched.append(chunk)
        return touched

    # ------------------------------------------------------------------
    # statistics and accounting

    def statistics(self, column: str) -> ColumnStatistics:
        """Column statistics merged across all chunks."""
        stats = ColumnStatistics.from_values(
            np.zeros(0, dtype=np.int64), self._schema.data_type(column)
        )
        for chunk in self._chunks:
            stats = stats.merge(chunk.statistics(column))
        return stats

    def data_bytes(self) -> int:
        return sum(chunk.data_bytes() for chunk in self._chunks)

    def index_bytes(self) -> int:
        return sum(chunk.index_bytes() for chunk in self._chunks)

    def memory_bytes(self) -> int:
        return self.data_bytes() + self.index_bytes()

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, rows={self.row_count}, "
            f"chunks={self.chunk_count})"
        )

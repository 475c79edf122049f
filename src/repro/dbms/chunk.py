"""Chunks: immutable horizontal partitions holding one segment per column.

Hyrise implicitly partitions every table into chunks; all physical-design
decisions (encoding, indexes, placement tier) are taken per chunk
(Section II-B). Chunk *data* is immutable once created — appends create new
chunks — which lets per-column statistics be computed once and cached, while
the physical representation (encodings, indexes, tier) remains mutable.

A segment is a pure function of (row order, column, encoding) and an index
of (row order, key columns, which of them are dictionary-coded): every other
encoding keys an index on its decoded values. So a chunk keeps every one it
has built for its current row order in a :class:`_StructureMemo`:
re-encoding, index creation and the index refresh after a re-encode — and
their inverses, which is what a what-if rollback is — swap structures in
instead of re-encoding and re-sorting. The sort order of a key-column list
is the same under every encoding, so the memo sorts each list once and its
indexes share that one ``positions`` array. Only a permutation, which
starts a new row order, drops the memo. It never affects simulated costs or
memory accounting.

Those same keys are how a chunk *names* its structures to the caches above
it: :meth:`Chunk.footprint` lists, for a set of predicate columns, the row
order, the columns' encodings and the applicable indexes. A name survives
a pickle, which a structure that is not live does not (snapshots drop the
memo), so a cache keyed on names hits after a restore exactly where it
would have without one.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from hashlib import blake2b

import numpy as np

from repro.dbms.index import SortedCompositeIndex
from repro.dbms.schema import TableSchema
from repro.dbms.segments import (
    DictionarySegment,
    EncodingType,
    Segment,
    encode_segment,
)
from repro.dbms.statistics import ColumnStatistics
from repro.dbms.storage_tiers import StorageTier
from repro.errors import IndexError_, SchemaError
from repro.util.lru import BoundedLRU, CacheStats

#: Bound on one chunk's memoised indexes, sized from the working set
#: measured on the perf ledger: tuning touched at most 58 distinct
#: (key, encodings) combinations per chunk on ``tune_loop`` and 57 on
#: ``fleet_serial``, which the key on dictionary flags only lowers.
#: Live indexes stay referenced by the chunk, so an eviction only loses
#: reuse.
_INDEX_MEMO_CAPACITY = 64

#: the encoding every segment of an appended chunk is loaded in; tuning
#: changes it through SetEncodingAction
LOAD_ENCODING = EncodingType.UNENCODED

#: (key columns, whether each is dictionary-coded)
_IndexMemoKey = tuple[tuple[str, ...], tuple[bool, ...]]


def _digest(permutation: "np.ndarray") -> int:
    """A 64-bit name of a permutation, the same in every process."""
    data = np.ascontiguousarray(permutation, dtype=np.int64).tobytes()
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


class _StructureMemo:
    """Every segment and index one chunk has built for its row order."""

    __slots__ = (
        "_segments",
        "_indexes",
        "_orders",
        "_hits",
        "_misses",
        "_evictions",
        "_invalidations",
    )

    def __init__(
        self,
        segments: Mapping[str, Segment],
        indexes: Mapping[tuple[str, ...], SortedCompositeIndex],
    ) -> None:
        self._segments: dict[tuple[str, EncodingType], Segment] = {}
        self._indexes: BoundedLRU[_IndexMemoKey, SortedCompositeIndex] = (
            BoundedLRU(_INDEX_MEMO_CAPACITY)
        )
        self._hits = self._misses = 0
        self._evictions = self._invalidations = 0
        self.reseed(segments, indexes)

    def reseed(
        self,
        segments: Mapping[str, Segment],
        indexes: Mapping[tuple[str, ...], SortedCompositeIndex],
    ) -> None:
        """Start over from the live structures of a new row order."""
        self._invalidations += len(self._segments) + len(self._indexes)
        self._segments = {
            (name, segment.encoding): segment
            for name, segment in segments.items()
        }
        self._indexes.clear()
        #: key columns → the one sort order of this row order, owned by
        #: the first index built on them and shared by the others
        self._orders: dict[tuple[str, ...], np.ndarray] = {}
        for key, index in indexes.items():
            self._indexes.put(self._index_key(key, segments), index)
            self._orders[key] = index.positions

    @staticmethod
    def _index_key(
        columns: tuple[str, ...], segments: Mapping[str, Segment]
    ) -> _IndexMemoKey:
        return columns, tuple(
            isinstance(segments[name], DictionarySegment) for name in columns
        )

    def segment(
        self, column: str, encoding: EncodingType, current: Segment
    ) -> Segment:
        """``column`` in ``encoding``, encoded from the decoded values of
        its ``current`` segment the first time it is asked for."""
        segment = self._segments.get((column, encoding))
        if segment is None:
            self._misses += 1
            segment = encode_segment(
                current.values(), current.data_type, encoding
            )
            self._segments[column, encoding] = segment
        else:
            self._hits += 1
        return segment

    def index(
        self, columns: tuple[str, ...], segments: Mapping[str, Segment]
    ) -> SortedCompositeIndex:
        """The index over ``columns`` of ``segments``, built the first
        time this key with these dictionary-coded columns is seen — by a
        sort the first time the key is, and through that sort order after."""
        key = self._index_key(columns, segments)
        index = self._indexes.get(key)
        if index is None:
            self._misses += 1
            index = SortedCompositeIndex.build(
                columns, segments, self._orders.get(columns)
            )
            self._orders.setdefault(columns, index.positions)
            self._evictions += self._indexes.put(key, index)
        else:
            self._hits += 1
        return index

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            invalidations=self._invalidations,
            size=len(self._segments) + len(self._indexes),
        )


class Chunk:
    """One horizontal partition of a table."""

    def __init__(
        self,
        chunk_id: int,
        schema: TableSchema,
        columns: Mapping[str, np.ndarray],
        derived: dict | None = None,
    ) -> None:
        """``derived`` is the owning table's memo of what it has derived
        from its chunks' physical state (footprints by predicate-column
        tuple; under ``None`` the non-DRAM scan; under ``"rows"`` the
        table-wide rows; under ``"zones"`` the zone maps); a mutation here
        drops from it what it outdates."""
        self._chunk_id = chunk_id
        self._derived: dict = derived if derived is not None else {}
        self._schema = schema
        lengths = {name: len(arr) for name, arr in columns.items()}
        if set(lengths) != set(schema.column_names):
            raise SchemaError(
                f"chunk columns {sorted(lengths)} do not match schema "
                f"{sorted(schema.column_names)}"
            )
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged chunk column lengths: {lengths}")
        self._row_count = next(iter(lengths.values())) if lengths else 0
        self._segments: dict[str, Segment] = {
            name: encode_segment(columns[name], schema.data_type(name), LOAD_ENCODING)
            for name in schema.column_names
        }
        self._indexes: dict[tuple[str, ...], SortedCompositeIndex] = {}
        self._statistics: dict[str, ColumnStatistics] = {}
        self._projected_widths: dict[tuple[str, ...], float] = {}
        self.tier = StorageTier.DRAM
        self._sort_column: str | None = None
        #: the name of the rows' order (0: the load order), under which a
        #: (column, encoding) or index key names one structure for good;
        #: see apply_permutation
        self._row_order: int | tuple = 0
        self._data_bytes: int | None = None
        self._memo = _StructureMemo(self._segments, self._indexes)

    def __getstate__(self) -> dict[str, object]:
        # the memo is a cache: snapshots and checkpoints carry only the
        # live structures (and the table re-links its own memo on load)
        state = self.__dict__.copy()
        del state["_memo"], state["_derived"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._derived = {}
        self._memo = _StructureMemo(self._segments, self._indexes)

    # ------------------------------------------------------------------
    # identity and data access

    @property
    def chunk_id(self) -> int:
        return self._chunk_id

    @property
    def tier(self) -> StorageTier:
        return self._tier

    @tier.setter
    def tier(self, value: StorageTier) -> None:
        self._derived.pop(None, None)
        self._tier = value

    def _retire(self, column: str) -> None:
        """Drop the table's footprints that name ``column``'s encoding or
        the indexes it leads (the tuple keys: the non-DRAM scan and the
        table-wide rows hold through either)."""
        derived = self._derived
        for columns in [
            c for c in derived if type(c) is tuple and column in c
        ]:
            del derived[columns]

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def schema(self) -> TableSchema:
        return self._schema

    def segment(self, column: str) -> Segment:
        try:
            return self._segments[column]
        except KeyError:
            raise SchemaError(
                f"chunk {self._chunk_id} has no column {column!r}"
            ) from None

    def segments(self) -> Mapping[str, Segment]:
        return dict(self._segments)

    def encoding_of(self, column: str) -> EncodingType:
        return self.segment(column).encoding

    def statistics(self, column: str) -> ColumnStatistics:
        """Cached column statistics (chunk data is immutable)."""
        if column not in self._statistics:
            segment = self.segment(column)
            self._statistics[column] = ColumnStatistics.from_values(
                segment.values(), segment.data_type
            )
        return self._statistics[column]

    def projected_width(self, columns: tuple[str, ...]) -> float:
        """Summed ``avg_item_bytes`` of ``columns`` — cached per projection
        tuple; statistics are value-based, so like :meth:`statistics` the
        entries survive reordering and re-encoding."""
        width = self._projected_widths.get(columns)
        if width is None:
            # an explicit left fold: builtin sum() compensates since
            # Python 3.12 and may land on other last bits
            width = 0.0
            for name in columns:
                width += self.statistics(name).avg_item_bytes
            self._projected_widths[columns] = width
        return width

    @property
    def sort_column(self) -> str | None:
        """The column this chunk's rows are physically ordered by, if the
        order was established by an explicit sort (ingest order otherwise)."""
        return self._sort_column

    # ------------------------------------------------------------------
    # physical design mutations

    def apply_permutation(
        self, permutation: "np.ndarray", sort_column: str | None
    ) -> list[tuple[str, ...]]:
        """Physically reorder the chunk's rows.

        Every segment is rebuilt (same encoding, new order — run-length
        segments shrink dramatically when the order groups equal values)
        and every index is rebuilt: a new row order is the one change that
        drops the structure memo. Column statistics are order-independent
        and stay cached. Returns the rebuilt index keys for cost accounting.

        An order is named by the order it came from and a digest of the
        permutation that leads back there. So a permutation that undoes
        the last one — a rollback's, a what-if's — takes the old name
        back, and with it every footprint cached for it; any other gets a
        name that no other order has.
        """
        if len(permutation) != self._row_count:
            raise SchemaError(
                f"permutation of length {len(permutation)} does not match "
                f"{self._row_count} rows"
            )
        for name, segment in list(self._segments.items()):
            values = segment.values()[permutation]
            self._segments[name] = encode_segment(
                values, segment.data_type, segment.encoding
            )
        rebuilt = list(self._indexes)
        for key in rebuilt:
            self._indexes[key] = SortedCompositeIndex.build(key, self._segments)
        self._memo.reseed(self._segments, self._indexes)
        order = self._row_order
        if type(order) is tuple and order[1] == _digest(permutation):
            self._row_order = order[0]
        else:
            back = np.empty_like(permutation)
            back[permutation] = np.arange(self._row_count, dtype=back.dtype)
            self._row_order = (order, _digest(back))
        self._sort_column = sort_column
        self._data_bytes = None
        # zone maps, like statistics, do not see the row order
        derived = self._derived
        zones = derived.pop("zones", None)
        derived.clear()
        if zones is not None:
            derived["zones"] = zones
        return rebuilt

    def sort_by(self, column: str) -> tuple["np.ndarray", list[tuple[str, ...]]]:
        """Sort the chunk's rows by ``column`` (stable).

        Returns the inverse permutation (which restores the previous order
        when passed to :meth:`apply_permutation`) and the rebuilt index
        keys. Sorting an already-sorted chunk is a no-op returning the
        identity permutation.
        """
        if not self._schema.has_column(column):
            raise SchemaError(f"cannot sort by unknown column {column!r}")
        if self._sort_column == column:
            identity = np.arange(self._row_count, dtype=np.int64)
            return identity, []
        order = np.argsort(self.segment(column).values(), kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(self._row_count, dtype=np.int64)
        rebuilt = self.apply_permutation(order, column)
        return inverse, rebuilt

    def set_encoding(self, column: str, encoding: EncodingType) -> list[tuple[str, ...]]:
        """Re-encode one column; replaces every index whose key contains it.

        The segment and the indexes come from the structure memo, so only
        the first visit of a (column, encoding) state encodes, and only the
        first index on a key-column list sorts.
        Returns the key tuples of the replaced indexes so the caller can
        account for the simulated rebuild cost (re-encoding an indexed
        column is a heavier reconfiguration — a real feature interaction).
        """
        old_segment = self.segment(column)
        if old_segment.encoding is encoding:
            return []
        self._segments[column] = self._memo.segment(column, encoding, old_segment)
        self._data_bytes = None
        self._retire(column)
        replaced = [key for key in self._indexes if column in key]
        for key in replaced:
            self._indexes[key] = self._memo.index(key, self._segments)
        return replaced

    def create_index(self, columns: Sequence[str]) -> SortedCompositeIndex:
        key = tuple(columns)
        if key in self._indexes:
            raise IndexError_(
                f"chunk {self._chunk_id} already has an index on {key}"
            )
        for name in key:
            if not self._schema.has_column(name):
                raise IndexError_(f"unknown index column {name!r}")
        index = self._memo.index(key, self._segments)
        self._indexes[key] = index
        self._retire(key[0])
        return index

    def drop_index(self, columns: Sequence[str]) -> None:
        key = tuple(columns)
        if key not in self._indexes:
            raise IndexError_(f"chunk {self._chunk_id} has no index on {key}")
        del self._indexes[key]
        self._retire(key[0])

    def has_index(self, columns: Sequence[str]) -> bool:
        return tuple(columns) in self._indexes

    def index(self, columns: Sequence[str]) -> SortedCompositeIndex:
        try:
            return self._indexes[tuple(columns)]
        except KeyError:
            raise IndexError_(
                f"chunk {self._chunk_id} has no index on {tuple(columns)}"
            ) from None

    def index_keys(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._indexes)

    def footprint(self, columns: tuple[str, ...]) -> tuple:
        """Names of the structures a plan over predicates on ``columns``
        binds here, and with them everything its access path and its scan
        and probe work are a function of: the row order, each column's
        encoding, and — sorted, since the choice among them does not
        follow creation order — the key of every index a predicate on its
        leading column could probe (a probe only ever touches key columns
        that carry predicates, whose encodings are already listed). Plain
        strings, ints and tuples of them, so the tuple hashes fast and
        pickles small."""
        names: list = [self._row_order]
        names.extend(self.segment(c).encoding.value for c in columns)
        names.extend(k for k in sorted(self._indexes) if k[0] in columns)
        return tuple(names)

    # ------------------------------------------------------------------
    # memory accounting

    def data_bytes(self) -> int:
        # cached: segments are only replaced by apply_permutation and
        # set_encoding, both of which invalidate (chunk data is immutable)
        if self._data_bytes is None:
            self._data_bytes = sum(
                seg.memory_bytes() for seg in self._segments.values()
            )
        return self._data_bytes

    def index_bytes(self) -> int:
        return sum(idx.memory_bytes() for idx in self._indexes.values())

    def memory_bytes(self) -> int:
        return self.data_bytes() + self.index_bytes()

    def structure_memo_stats(self) -> CacheStats:
        return self._memo.stats()

    def __repr__(self) -> str:
        return (
            f"Chunk(id={self._chunk_id}, rows={self._row_count}, "
            f"tier={self.tier.value}, indexes={len(self._indexes)})"
        )

"""Per-chunk multi-attribute sorted indexes.

Index-selection candidates in the paper are "lists of attributes", so the
index structure is a composite sorted index over one or more columns of a
single chunk. Probes support equality on any key prefix and range predicates
on the first key column.

The index is built on each segment's :meth:`~repro.dbms.segments.Segment.
sort_key_array`, which for dictionary-encoded segments returns the narrow
order-preserving *codes* instead of decoded values. A dictionary-encoded
column therefore yields a smaller index with cheaper key comparisons — a
real, measurable interaction between the compression feature and the index
feature, which is exactly what the dependence ratios of Section III detect.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.dbms.segments import DictionarySegment, Segment
from repro.errors import IndexError_

#: Relative key-comparison cost when probing narrow dictionary codes.
_CODE_COMPARE_FACTOR = 0.6
_VALUE_COMPARE_FACTOR = 1.0


class SortedCompositeIndex:
    """A sorted composite index over the columns of one chunk."""

    def __init__(
        self,
        columns: tuple[str, ...],
        sorted_keys: list[np.ndarray],
        positions: np.ndarray,
        dictionaries: list[np.ndarray | None],
    ) -> None:
        self._columns = columns
        self._sorted_keys = sorted_keys
        self._positions = positions
        self._dictionaries = dictionaries
        # one index object is shared by every configuration state that
        # contains it (see the structure memo in repro.dbms.chunk), so
        # its arrays are immutable — which also fixes its size
        for array in (positions, *sorted_keys):
            array.setflags(write=False)
        self._memory_bytes = int(positions.nbytes) + sum(
            int(keys.nbytes) for keys in sorted_keys
        )
        # key-comparison work depends only on the index shape, so the
        # per-prefix-length totals are folded once at construction;
        # _probe_unit_prefix[k] is the cost of touching the first k columns
        n = max(len(positions), 2)
        prefix = [0.0]
        units = 0.0
        for col in range(len(columns)):
            factor = (
                _CODE_COMPARE_FACTOR
                if dictionaries[col] is not None
                else _VALUE_COMPARE_FACTOR
            )
            units += 2.0 * factor * float(np.log2(n))
            prefix.append(units)
        self._probe_unit_prefix = prefix

    @classmethod
    def build(
        cls,
        columns: Sequence[str],
        segments: Mapping[str, Segment],
        positions: np.ndarray | None = None,
    ) -> "SortedCompositeIndex":
        """Build an index over ``columns`` from the chunk's segments.

        ``positions`` is the sort order of another index over the same
        columns of the same rows, whose key columns may differ only in
        being dictionary-coded. The keys are then gathered through it and
        the index shares the array instead of sorting: dictionary codes
        preserve the order of the values they stand for and
        ``np.lexsort`` is stable, so the order on codes and the order on
        values are one permutation. Without it, the keys are sorted here.
        """
        if not columns:
            raise IndexError_("an index needs at least one column")
        if len(set(columns)) != len(columns):
            raise IndexError_(f"duplicate columns in index key: {columns}")
        key_arrays: list[np.ndarray] = []
        dictionaries: list[np.ndarray | None] = []
        for name in columns:
            try:
                segment = segments[name]
            except KeyError:
                raise IndexError_(f"chunk has no column {name!r}") from None
            key_arrays.append(segment.sort_key_array())
            if isinstance(segment, DictionarySegment):
                dictionaries.append(segment.dictionary)
            else:
                dictionaries.append(None)
        if positions is None:
            # np.lexsort treats the *last* key as primary, so reverse.
            order = np.lexsort(tuple(reversed(key_arrays)))
            positions = order.astype(np.uint32)
        sorted_keys = [keys[positions] for keys in key_arrays]
        return cls(tuple(columns), sorted_keys, positions, dictionaries)

    @property
    def positions(self) -> np.ndarray:
        """The read-only sort order: row positions in key order."""
        return self._positions

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    def __len__(self) -> int:
        return len(self._positions)

    def memory_bytes(self) -> int:
        """Positions plus the (possibly code-typed) key copies."""
        return self._memory_bytes

    def __setstate__(self, state: dict[str, object]) -> None:
        # rebuilt from the constructor's arguments: a pickle holds
        # writeable arrays and, if an earlier version wrote it, lacks the
        # derived fields
        self.__init__(
            state["_columns"],
            state["_sorted_keys"],
            state["_positions"],
            state["_dictionaries"],
        )

    # ------------------------------------------------------------------
    # probing

    def _range_for(
        self, col: int, op: str, value: object, lo: int, hi: int
    ) -> tuple[int, int]:
        """Half-open sorted-order range within ``[lo, hi)`` where column
        ``col`` satisfies ``<op> value``. Requires the slice to be sorted on
        that column (true for col 0 globally, and for any column within a
        group of equal preceding keys)."""
        keys = self._sorted_keys[col][lo:hi]
        dictionary = self._dictionaries[col]
        if dictionary is not None:
            left = int(dictionary.searchsorted(value, side="left"))
            right = int(dictionary.searchsorted(value, side="right"))
            if op == "=":
                if left == right:  # literal not in dictionary
                    return lo, lo
                a = int(keys.searchsorted(left, side="left"))
                b = int(keys.searchsorted(left, side="right"))
                return lo + a, lo + b
            if op == "<":
                return lo, lo + int(keys.searchsorted(left, side="left"))
            if op == "<=":
                return lo, lo + int(keys.searchsorted(right, side="left"))
            if op == ">":
                return lo + int(keys.searchsorted(right, side="left")), hi
            if op == ">=":
                return lo + int(keys.searchsorted(left, side="left")), hi
            raise IndexError_(f"index probe does not support operator {op!r}")
        if op == "=":
            a = int(keys.searchsorted(value, side="left"))
            b = int(keys.searchsorted(value, side="right"))
            return lo + a, lo + b
        if op == "<":
            return lo, lo + int(keys.searchsorted(value, side="left"))
        if op == "<=":
            return lo, lo + int(keys.searchsorted(value, side="right"))
        if op == ">":
            return lo + int(keys.searchsorted(value, side="right")), hi
        if op == ">=":
            return lo + int(keys.searchsorted(value, side="left")), hi
        raise IndexError_(f"index probe does not support operator {op!r}")

    def lookup(
        self,
        equal_prefix: Sequence[object],
        range_predicates: Sequence[tuple[str, object]] = (),
    ) -> np.ndarray:
        """Row positions matching equality on the first ``len(equal_prefix)``
        key columns, optionally refined by range predicates on the next key
        column.

        ``lookup(("de", 7))`` finds rows where col0 = "de" and col1 = 7;
        ``lookup(("de",), [(">=", 7), ("<", 20)])`` finds rows where
        col0 = "de" and 7 <= col1 < 20 (a two-sided range, e.g. from
        ``BETWEEN``); ``lookup((), [("<", 7)])`` is a pure range probe on
        the first column.
        """
        if len(equal_prefix) > len(self._columns):
            raise IndexError_(
                f"prefix of {len(equal_prefix)} values exceeds "
                f"{len(self._columns)} key columns"
            )
        lo, hi = 0, len(self._positions)
        for col, value in enumerate(equal_prefix):
            lo, hi = self._range_for(col, "=", value, lo, hi)
            if lo >= hi:
                return self._positions[:0]
        if range_predicates:
            col = len(equal_prefix)
            if col >= len(self._columns):
                raise IndexError_(
                    "range predicate exceeds the index key columns"
                )
            for op, value in range_predicates:
                lo, hi = self._range_for(col, op, value, lo, hi)
                if lo >= hi:
                    return self._positions[:0]
        return self._positions[lo:hi]

    def probe_cost_units(self, probed_columns: int, rows_out: int) -> float:
        """Abstract work units for one probe touching ``probed_columns`` key
        columns and producing ``rows_out`` positions."""
        units = self._probe_unit_prefix[min(probed_columns, len(self._columns))]
        # fetching one matched position is a sequential read of the sorted
        # positions array — far cheaper than a key comparison
        return units + 0.1 * rows_out

    def __repr__(self) -> str:
        return (
            f"SortedCompositeIndex(columns={self._columns}, "
            f"rows={len(self)}, bytes={self.memory_bytes()})"
        )

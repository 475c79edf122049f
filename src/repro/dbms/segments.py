"""Column segments and their encodings.

A *segment* is the physical storage of one column within one chunk
(Hyrise terminology). Four encodings are implemented, mirroring the classic
in-memory columnar toolbox the paper's compression tuner chooses between:

- ``UNENCODED`` — plain numpy array.
- ``DICTIONARY`` — sorted dictionary + per-row codes in the narrowest
  unsigned dtype that fits. Predicates are evaluated on codes after a single
  binary search of the dictionary, so scans are cheaper per row but pay a
  fixed probe overhead.
- ``RUN_LENGTH`` — (value, run length) pairs; scan work scales with the
  number of runs rather than rows, so it excels on sorted/low-cardinality
  data and degrades to worse-than-unencoded on random data.
- ``FRAME_OF_REFERENCE`` — integer-only; stores ``min`` plus small offsets.

Every segment answers three questions the rest of the system needs:
decoded ``values()``, exact ``memory_bytes()``, and the *work units* a
predicate scan over it costs (``scan_units`` / ``scan_overhead_units``),
which the hardware profile converts into simulated time. Encodings thereby
interact with indexing and placement decisions — the interaction Section III
of the paper measures via dependence ratios.
"""

from __future__ import annotations

import enum
import operator
from abc import ABC, abstractmethod
from collections.abc import Callable
from functools import partial
from typing import ClassVar

import numpy as np

from repro.dbms.types import DataType
from repro.errors import EncodingError

#: Comparison operators supported by predicate evaluation.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class EncodingType(enum.Enum):
    """Physical encoding of a column segment."""

    UNENCODED = "unencoded"
    DICTIONARY = "dictionary"
    RUN_LENGTH = "run_length"
    FRAME_OF_REFERENCE = "frame_of_reference"


def narrowest_uint_dtype(max_value: int) -> np.dtype:
    """The smallest unsigned dtype that can hold ``max_value``."""
    if max_value < 2**8:
        return np.dtype(np.uint8)
    if max_value < 2**16:
        return np.dtype(np.uint16)
    if max_value < 2**32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


_COMPARE_FUNCS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


#: A predicate bound to one segment: called with nothing, returns a fresh
#: boolean mask (the caller may ``&=`` into it).
BoundPredicate = Callable[[], np.ndarray]


def _compare_func(op: str) -> Callable[[object, object], np.ndarray]:
    try:
        return _COMPARE_FUNCS[op]
    except KeyError:
        raise EncodingError(f"unsupported comparison operator {op!r}") from None


def _compare_array(arr: np.ndarray, op: str, value: object) -> np.ndarray:
    return _compare_func(op)(arr, value)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _order_preserving_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``values`` and, per element, its position among
    them in the narrowest unsigned dtype that fits."""
    dictionary, codes = np.unique(values, return_inverse=True)
    code_dtype = narrowest_uint_dtype(max(len(dictionary) - 1, 0))
    return _frozen(dictionary), _frozen(codes.astype(code_dtype))


def _bind_codes(
    dictionary: np.ndarray, codes: np.ndarray, op: str, value: object
) -> BoundPredicate:
    """``<op> value`` over ``dictionary[codes]`` as an integer comparison
    of ``codes`` against a bound found by one binary search — or, when the
    search settles every row at once, as a constant.

    A NaN compares false with everything but ``!=``, as it does in numpy:
    a NaN literal settles every row, and a float dictionary's NaN — sorted
    last, as one entry — lies above no bound."""
    func = _compare_func(op)
    size = len(codes)
    if dictionary.dtype.kind != "U" and value != value:
        return partial(np.full, size, op == "!=", bool)
    top = len(dictionary)
    if top and dictionary.dtype.kind == "f" and np.isnan(dictionary[-1]):
        top -= 1
    side = "right" if op in ("<=", ">") else "left"
    bound = int(np.searchsorted(dictionary, value, side=side))
    if op in ("=", "!="):
        # an array compare, so that what counts as equal (trailing NULs
        # do not) is what it is for the decoded values
        if not (dictionary[bound : bound + 1] == value).any():
            return partial(np.full, size, op == "!=", bool)
        return partial(func, codes, bound)
    # the codes under ``bound`` are the values < (left) or <= (right) it;
    # the codes from ``top`` on are NaN
    lo, hi = (0, bound) if op[0] == "<" else (bound, top)
    if hi <= lo:
        return partial(np.full, size, False, bool)
    if lo == 0 and hi == len(dictionary):
        return partial(np.full, size, True, bool)
    if lo == 0:
        return partial(operator.lt, codes, hi)
    if hi == len(dictionary):
        return partial(operator.ge, codes, lo)
    return lambda: (codes >= lo) & (codes < hi)


def _frame_of_reference(values: np.ndarray) -> tuple[int, int, np.ndarray]:
    """``(minimum, maximum - minimum, offsets from the minimum)`` of an
    integer array, the offsets in the narrowest unsigned dtype that fits."""
    if len(values) == 0:
        return 0, 0, _frozen(np.zeros(0, dtype=np.uint8))
    reference = int(values.min())
    span = int(values.max()) - reference
    offsets = (values - reference).astype(narrowest_uint_dtype(span))
    return reference, span, _frozen(offsets)


def _bind_offsets(
    offsets: np.ndarray,
    reference: int,
    span: int,
    length: int,
    op: str,
    value: object,
) -> BoundPredicate:
    """``<op> value`` over the ``length`` rows ``offsets + reference``,
    compared in the *integer* offset domain: a float64 detour would
    silently corrupt literals and offsets beyond 2**53."""
    func = _compare_func(op)
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if not integral:
        # non-integral literal: decoded comparison, identical semantics
        # to an unencoded int64 array facing the same literal
        return lambda: func(offsets.astype(np.int64) + reference, value)
    literal = int(value)
    if reference <= literal <= reference + span:
        return partial(func, offsets, literal - reference)
    # Literal outside the value range: the answer is constant for every
    # row, no offset scan needed — every row is under a literal above the
    # range and over one below it.
    constant = {"=": False, "!=": True}.get(
        op, (op[0] == "<") == (literal > reference)
    )
    return partial(np.full, length, constant, bool)


class Segment(ABC):
    """Abstract physical storage of one column within one chunk.

    Immutable: one segment object is shared by every configuration state
    that contains it (see the structure memo in :mod:`repro.dbms.chunk`),
    so the arrays it owns are read-only.
    """

    encoding: ClassVar[EncodingType]
    #: attributes derived from the stored arrays on demand (class-level
    #: ``None`` until then): host-side speed-ups that no simulated quantity
    #: reads and no pickle carries
    _DERIVED: ClassVar[tuple[str, ...]] = ("_code_domain",)
    _code_domain: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(self, data_type: DataType, length: int) -> None:
        self._data_type = data_type
        self._length = length

    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        # unpickled arrays come back writeable
        self.__dict__.update(state)
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def data_type(self) -> DataType:
        return self._data_type

    def __len__(self) -> int:
        return self._length

    @abstractmethod
    def values(self) -> np.ndarray:
        """Decoded values for the whole segment."""

    @abstractmethod
    def take(self, positions: np.ndarray) -> np.ndarray:
        """Decoded values at the given row positions."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Exact bytes of the physical representation."""

    @abstractmethod
    def bind(self, op: str, value: object) -> BoundPredicate:
        """``row <op> value`` with everything that depends on the literal
        settled now — operator lookup, dictionary search, offset
        translation, the cases one look at the literal answers for every
        row — so that each call is little more than one ufunc."""

    def compare(self, op: str, value: object) -> np.ndarray:
        """Boolean mask of rows satisfying ``row <op> value``."""
        return self.bind(op, value)()

    def _bind_values(
        self, values: np.ndarray, op: str, value: object
    ) -> BoundPredicate:
        """``values <op> value`` for a stored array. Strings are compared
        as order-preserving integer codes, coded the first time a string
        literal meets them; a literal of another type, and any other
        array, goes to numpy as it is."""
        if values.dtype.kind != "U" or not isinstance(value, str):
            return partial(_compare_func(op), values, value)
        if self._code_domain is None:
            self._code_domain = _order_preserving_codes(values)
        return _bind_codes(*self._code_domain, op, value)

    def code_domain(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct decoded values and, per row, its position among
        them in the narrowest unsigned dtype — derived for the caller,
        not kept."""
        if self._code_domain is not None:
            return self._code_domain
        return _order_preserving_codes(self.values())

    @abstractmethod
    def scan_units(self, candidate_count: int) -> float:
        """Abstract work units for evaluating one predicate over
        ``candidate_count`` still-live rows of this segment."""

    def scan_overhead_units(self) -> float:
        """Fixed per-scan work (e.g. a dictionary probe). Zero by default."""
        return 0.0

    def sort_key_array(self) -> np.ndarray:
        """Array usable as index keys. Encodings that store order-preserving
        codes (dictionary) return the codes so indexes built on top are
        smaller and cheaper to compare — the encoding/index interaction."""
        return self.values()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(len={len(self)}, "
            f"bytes={self.memory_bytes()})"
        )


class UnencodedSegment(Segment):
    """Plain array storage; the baseline every other encoding is judged against."""

    encoding = EncodingType.UNENCODED

    def __init__(self, values: np.ndarray, data_type: DataType) -> None:
        super().__init__(data_type, len(values))
        # a view, so the caller's own array keeps its flags
        self._values = _frozen(values.view())

    def values(self) -> np.ndarray:
        return self._values

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self._values[positions]

    def memory_bytes(self) -> int:
        return int(self._values.nbytes)

    def bind(self, op: str, value: object) -> BoundPredicate:
        return self._bind_values(self._values, op, value)

    def scan_units(self, candidate_count: int) -> float:
        return float(candidate_count)


class DictionarySegment(Segment):
    """Sorted dictionary plus narrow codes.

    Codes are order-preserving, so all comparison operators translate into
    integer comparisons against a code bound found by one binary search.
    """

    #: work per candidate row relative to an unencoded scan
    SCAN_FACTOR = 0.55

    encoding = EncodingType.DICTIONARY

    def __init__(self, values: np.ndarray, data_type: DataType) -> None:
        super().__init__(data_type, len(values))
        self._dictionary, self._codes = _order_preserving_codes(values)

    @property
    def dictionary(self) -> np.ndarray:
        return self._dictionary

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    def values(self) -> np.ndarray:
        return self._dictionary[self._codes]

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self._dictionary[self._codes[positions]]

    def memory_bytes(self) -> int:
        return int(self._codes.nbytes + self._dictionary.nbytes)

    def sort_key_array(self) -> np.ndarray:
        return self._codes

    def code_domain(self) -> tuple[np.ndarray, np.ndarray]:
        return self._dictionary, self._codes

    def bind(self, op: str, value: object) -> BoundPredicate:
        return _bind_codes(self._dictionary, self._codes, op, value)

    def scan_units(self, candidate_count: int) -> float:
        return self.SCAN_FACTOR * candidate_count

    def scan_overhead_units(self) -> float:
        # One binary search of the dictionary per predicate evaluation.
        return 2.0 * float(np.log2(len(self._dictionary) + 2.0))


class RunLengthSegment(Segment):
    """Run-length encoding: consecutive equal values collapse into runs."""

    #: work per *run* relative to an unencoded per-row scan
    RUN_FACTOR = 1.3

    encoding = EncodingType.RUN_LENGTH
    _DERIVED = ("_code_domain", "_decoded", "_run_ends")
    _decoded: np.ndarray | None = None
    _run_ends: np.ndarray | None = None

    def __init__(self, values: np.ndarray, data_type: DataType) -> None:
        super().__init__(data_type, len(values))
        if len(values) == 0:
            self._run_values = _frozen(values[:0])
            self._run_lengths = _frozen(np.zeros(0, dtype=np.int64))
        else:
            change = np.flatnonzero(values[1:] != values[:-1]) + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [len(values)]))
            self._run_values = _frozen(values[starts])
            self._run_lengths = _frozen((ends - starts).astype(np.int64))

    @property
    def run_count(self) -> int:
        return len(self._run_values)

    def values(self) -> np.ndarray:
        if self._decoded is None:
            self._decoded = _frozen(
                np.repeat(self._run_values, self._run_lengths)
            )
        return self._decoded

    def take(self, positions: np.ndarray) -> np.ndarray:
        if self._decoded is not None:
            return self._decoded[positions]
        # No-full-decode path: map each position to its run via one binary
        # search over the run end offsets, touching O(k log runs) work for
        # k positions instead of materialising all rows.
        if self._run_ends is None:
            self._run_ends = np.cumsum(self._run_lengths)
        run_idx = np.searchsorted(self._run_ends, positions, side="right")
        return self._run_values[run_idx]

    def memory_bytes(self) -> int:
        # Run lengths are stored as 4-byte counts in a real system.
        return int(self._run_values.nbytes + 4 * len(self._run_lengths))

    def bind(self, op: str, value: object) -> BoundPredicate:
        run_mask = self._bind_values(self._run_values, op, value)
        run_lengths = self._run_lengths
        return lambda: np.repeat(run_mask(), run_lengths)

    def code_domain(self) -> tuple[np.ndarray, np.ndarray]:
        dictionary, run_codes = (
            self._code_domain
            if self._code_domain is not None
            else _order_preserving_codes(self._run_values)
        )
        return dictionary, np.repeat(run_codes, self._run_lengths)

    def scan_units(self, candidate_count: int) -> float:
        if len(self) == 0:
            return 0.0
        live_fraction = candidate_count / len(self)
        return self.RUN_FACTOR * self.run_count * live_fraction


class FrameOfReferenceSegment(Segment):
    """Integer values stored as narrow offsets from the segment minimum."""

    SCAN_FACTOR = 0.8

    encoding = EncodingType.FRAME_OF_REFERENCE

    def __init__(self, values: np.ndarray, data_type: DataType) -> None:
        if data_type is not DataType.INT:
            raise EncodingError(
                "frame-of-reference encoding requires an INT column, got "
                f"{data_type.value}"
            )
        super().__init__(data_type, len(values))
        self._reference, self._span, self._offsets = _frame_of_reference(
            values
        )

    @property
    def reference(self) -> int:
        return self._reference

    def values(self) -> np.ndarray:
        return self._offsets.astype(np.int64) + self._reference

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self._offsets[positions].astype(np.int64) + self._reference

    def memory_bytes(self) -> int:
        return int(self._offsets.nbytes + 8)

    def bind(self, op: str, value: object) -> BoundPredicate:
        return _bind_offsets(
            self._offsets, self._reference, self._span, len(self), op, value
        )

    def scan_units(self, candidate_count: int) -> float:
        return self.SCAN_FACTOR * candidate_count


_SEGMENT_CLASSES: dict[EncodingType, type[Segment]] = {
    EncodingType.UNENCODED: UnencodedSegment,
    EncodingType.DICTIONARY: DictionarySegment,
    EncodingType.RUN_LENGTH: RunLengthSegment,
    EncodingType.FRAME_OF_REFERENCE: FrameOfReferenceSegment,
}


def encode_segment(
    values: np.ndarray, data_type: DataType, encoding: EncodingType
) -> Segment:
    """Build a segment of the requested encoding from decoded values."""
    try:
        cls = _SEGMENT_CLASSES[encoding]
    except KeyError:
        raise EncodingError(f"unknown encoding {encoding!r}") from None
    return cls(values, data_type)


def supported_encodings(data_type: DataType) -> tuple[EncodingType, ...]:
    """Encodings applicable to a column of the given logical type."""
    if data_type is DataType.INT:
        return (
            EncodingType.UNENCODED,
            EncodingType.DICTIONARY,
            EncodingType.RUN_LENGTH,
            EncodingType.FRAME_OF_REFERENCE,
        )
    return (
        EncodingType.UNENCODED,
        EncodingType.DICTIONARY,
        EncodingType.RUN_LENGTH,
    )


class ColumnRows:
    """One column's rows across a table's chunks, in chunk order: what an
    unencoded segment over the concatenated decoded values compares and
    gathers, kept as the integers it compares cheapest — offsets from the
    minimum for an INT column (as frame-of-reference stores them), the
    *code domain* for a STRING column (as an unencoded segment binds a
    string literal), the values themselves for a FLOAT column.

    Built by :meth:`~repro.dbms.table.Table.rows` from the chunks'
    segments and held for as long as the row order stands. Host-side
    only, like a segment's derived arrays: nothing priced reads it and no
    pickle carries it.
    """

    __slots__ = ("_rows", "_dictionary", "_reference", "_span", "widths")

    def __init__(self, segments: list[Segment]) -> None:
        data_type = segments[0].data_type
        self._dictionary: np.ndarray | None = None
        self._reference: int | None = None
        self._span = 0
        #: per chunk, a STRING column's character width (its own dtype's)
        self.widths: tuple[int, ...] = ()
        if data_type is DataType.STRING:
            # merge each segment's code domain: the distinct values are
            # few, the rows are never concatenated as strings
            domains = [segment.code_domain() for segment in segments]
            dictionary = np.unique(np.concatenate([d for d, _ in domains]))
            rows = np.empty(
                sum(len(codes) for _, codes in domains),
                dtype=narrowest_uint_dtype(max(len(dictionary) - 1, 0)),
            )
            start = 0
            for local, codes in domains:
                stop = start + len(codes)
                rows[start:stop] = np.searchsorted(dictionary, local)[codes]
                start = stop
            self._dictionary = _frozen(dictionary)
            self._rows = _frozen(rows)
            self.widths = tuple(d.dtype.itemsize // 4 for d, _ in domains)
            return
        values = np.concatenate([segment.values() for segment in segments])
        if data_type is DataType.INT:
            self._reference, self._span, self._rows = _frame_of_reference(
                values
            )
        else:
            self._rows = _frozen(values)

    def exact(self, value: object) -> bool:
        """Whether every encoding's ``bind`` answers ``<op> value`` as
        :meth:`bind_slice` does: a string literal on a string column, an
        integer on an integer column, and any number within float64's
        integers. Elsewhere — a float past 2**53 against an integer
        dictionary, a non-string literal on a string column — an encoding
        has its own answer (or exception)."""
        if self._dictionary is not None:
            return isinstance(value, str)
        if self._reference is not None and isinstance(
            value, (int, np.signedinteger)
        ):
            return True
        return isinstance(value, (int, float, np.integer)) and abs(value) < 2**53

    def bind_slice(
        self, start: int, stop: int, op: str, value: object
    ) -> BoundPredicate:
        """``row <op> value`` over rows ``start:stop``, settled as a
        segment's ``bind`` settles it; only for an :meth:`exact` literal."""
        rows = self._rows[start:stop]
        if self._dictionary is not None:
            return _bind_codes(self._dictionary, rows, op, value)
        if self._reference is not None:
            return _bind_offsets(
                rows, self._reference, self._span, stop - start, op, value
            )
        return partial(_compare_func(op), rows, value)

    def take(self, start: int, stop: int, mask: np.ndarray) -> np.ndarray:
        """Decoded values of the rows ``start:stop`` where ``mask``."""
        # compress: a boolean subscript gathers the same rows, slower
        rows = self._rows[start:stop].compress(mask)
        if self._dictionary is not None:
            return self._dictionary[rows]
        if self._reference is not None:
            return rows.astype(np.int64) + self._reference
        return rows

"""Tests for segment encodings, including property-based round trips."""

import operator
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms.segments import (
    COMPARISON_OPS,
    ColumnRows,
    DictionarySegment,
    EncodingType,
    FrameOfReferenceSegment,
    RunLengthSegment,
    UnencodedSegment,
    _compare_array,
    encode_segment,
    narrowest_uint_dtype,
    supported_encodings,
)
from repro.dbms.types import DataType
from repro.errors import EncodingError

ALL_ENCODINGS = list(EncodingType)
STRING_ENCODINGS = list(supported_encodings(DataType.STRING))


def _int_values():
    return np.array([5, 3, 5, 5, 9, 3, 7, 7, 7, 1], dtype=np.int64)


def _str_values():
    return np.array(["b", "a", "b", "c", "c", "a"], dtype="<U1")


# ----------------------------------------------------------------------
# round trips and memory accounting


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_int_round_trip(encoding):
    values = _int_values()
    segment = encode_segment(values, DataType.INT, encoding)
    assert segment.encoding is encoding
    np.testing.assert_array_equal(segment.values(), values)


@pytest.mark.parametrize(
    "encoding",
    [EncodingType.UNENCODED, EncodingType.DICTIONARY, EncodingType.RUN_LENGTH],
)
def test_string_round_trip(encoding):
    values = _str_values()
    segment = encode_segment(values, DataType.STRING, encoding)
    np.testing.assert_array_equal(segment.values(), values)


def test_frame_of_reference_rejects_strings():
    with pytest.raises(EncodingError):
        encode_segment(_str_values(), DataType.STRING, EncodingType.FRAME_OF_REFERENCE)


def test_supported_encodings_by_type():
    assert EncodingType.FRAME_OF_REFERENCE in supported_encodings(DataType.INT)
    assert EncodingType.FRAME_OF_REFERENCE not in supported_encodings(DataType.STRING)


def test_dictionary_is_smaller_on_low_cardinality():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 10, 10_000)
    plain = encode_segment(values, DataType.INT, EncodingType.UNENCODED)
    dictionary = encode_segment(values, DataType.INT, EncodingType.DICTIONARY)
    assert dictionary.memory_bytes() < plain.memory_bytes() / 4


def test_run_length_is_tiny_on_sorted_data():
    values = np.repeat(np.arange(20), 500)
    rle = encode_segment(values, DataType.INT, EncodingType.RUN_LENGTH)
    assert isinstance(rle, RunLengthSegment)
    assert rle.run_count == 20
    plain = encode_segment(values, DataType.INT, EncodingType.UNENCODED)
    assert rle.memory_bytes() < plain.memory_bytes() / 100


def test_frame_of_reference_narrows_offsets():
    values = np.arange(1_000_000, 1_000_200, dtype=np.int64)
    for_segment = encode_segment(values, DataType.INT, EncodingType.FRAME_OF_REFERENCE)
    assert isinstance(for_segment, FrameOfReferenceSegment)
    assert for_segment.memory_bytes() < values.nbytes / 4


def test_narrowest_uint_dtype():
    assert narrowest_uint_dtype(255) == np.uint8
    assert narrowest_uint_dtype(256) == np.uint16
    assert narrowest_uint_dtype(2**16) == np.uint32
    assert narrowest_uint_dtype(2**32) == np.uint64


# ----------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("op", COMPARISON_OPS)
@pytest.mark.parametrize("literal", [0, 1, 5, 7, 10])
def test_int_compare_matches_numpy(encoding, op, literal):
    values = _int_values()
    segment = encode_segment(values, DataType.INT, encoding)
    expected = {
        "=": values == literal,
        "!=": values != literal,
        "<": values < literal,
        "<=": values <= literal,
        ">": values > literal,
        ">=": values >= literal,
    }[op]
    np.testing.assert_array_equal(segment.compare(op, literal), expected)


@pytest.mark.parametrize(
    "encoding",
    [EncodingType.UNENCODED, EncodingType.DICTIONARY, EncodingType.RUN_LENGTH],
)
@pytest.mark.parametrize("op", COMPARISON_OPS)
def test_string_compare_matches_numpy(encoding, op):
    values = _str_values()
    segment = encode_segment(values, DataType.STRING, encoding)
    literal = "b"
    expected = {
        "=": values == literal,
        "!=": values != literal,
        "<": values < literal,
        "<=": values <= literal,
        ">": values > literal,
        ">=": values >= literal,
    }[op]
    np.testing.assert_array_equal(segment.compare(op, literal), expected)


def test_compare_rejects_unknown_operator():
    segment = encode_segment(_int_values(), DataType.INT, EncodingType.DICTIONARY)
    with pytest.raises(EncodingError):
        segment.compare("~", 5)


def test_take_returns_values_at_positions():
    values = _int_values()
    positions = np.array([0, 4, 9])
    for encoding in ALL_ENCODINGS:
        segment = encode_segment(values, DataType.INT, encoding)
        np.testing.assert_array_equal(segment.take(positions), values[positions])


# ----------------------------------------------------------------------
# scan work model sanity


def test_scan_units_scale_with_candidates():
    values = np.random.default_rng(1).integers(0, 100, 10_000)
    for encoding in ALL_ENCODINGS:
        segment = encode_segment(values, DataType.INT, encoding)
        assert segment.scan_units(10_000) > segment.scan_units(100) >= 0


def test_dictionary_has_probe_overhead():
    segment = encode_segment(_int_values(), DataType.INT, EncodingType.DICTIONARY)
    assert segment.scan_overhead_units() > 0


def test_dictionary_sort_keys_are_codes():
    segment = encode_segment(_int_values(), DataType.INT, EncodingType.DICTIONARY)
    assert isinstance(segment, DictionarySegment)
    keys = segment.sort_key_array()
    assert keys.dtype == np.uint8
    # codes are order-preserving
    values = segment.values()
    order_by_codes = np.argsort(keys, kind="stable")
    assert (np.diff(values[order_by_codes]) >= 0).all()


def test_unencoded_sort_keys_are_values():
    values = _int_values()
    segment = UnencodedSegment(values, DataType.INT)
    np.testing.assert_array_equal(segment.sort_key_array(), values)


# ----------------------------------------------------------------------
# property-based round trips


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=200))
def test_property_int_encode_decode_identity(values):
    arr = np.array(values, dtype=np.int64)
    for encoding in ALL_ENCODINGS:
        segment = encode_segment(arr, DataType.INT, encoding)
        np.testing.assert_array_equal(segment.values(), arr)
        assert len(segment) == len(arr)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcxyz", min_size=0, max_size=6),
        min_size=1,
        max_size=100,
    )
)
def test_property_string_encode_decode_identity(values):
    arr = np.array(values, dtype=f"<U{max(1, max(len(v) for v in values))}")
    for encoding in (
        EncodingType.UNENCODED,
        EncodingType.DICTIONARY,
        EncodingType.RUN_LENGTH,
    ):
        segment = encode_segment(arr, DataType.STRING, encoding)
        np.testing.assert_array_equal(segment.values(), arr)


def _accounting(segment):
    """Everything a simulated figure or an index build reads off a segment."""
    keys = segment.sort_key_array()
    return (
        segment.memory_bytes(),
        segment.scan_units(len(segment)),
        segment.scan_units(1),
        segment.scan_overhead_units(),
        keys.dtype,
        keys.tobytes(),
    )


def _assert_bound_equals_decoded(segment, literal):
    """For every operator, ``bind`` (and ``compare``, which is ``bind``
    called once) gives the mask numpy gives over the decoded values, binding
    moves no accounted quantity, and a caller may ``&=`` into the mask."""
    before = _accounting(segment)
    for op in COMPARISON_OPS:
        expected = _compare_array(segment.values(), op, literal)
        bound = segment.bind(op, literal)
        mask = bound()
        assert mask.dtype == bool and mask.shape == (len(segment),)
        np.testing.assert_array_equal(mask, expected)
        mask &= np.zeros(len(segment), dtype=bool)  # as the kernel does
        np.testing.assert_array_equal(bound(), expected)
        np.testing.assert_array_equal(segment.compare(op, literal), expected)
    assert _accounting(segment) == before


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=150),
    st.sampled_from([0, 2**60]),
    st.data(),
)
def test_property_compare_agrees_across_encodings(small, base, data):
    arr = np.array(small, dtype=np.int64) + base
    present = st.sampled_from(arr.tolist())
    literal = data.draw(
        st.one_of(
            present,
            present.map(lambda v: v + 1),  # often absent, between two values
            st.just(int(arr.min()) - 1),
            st.just(int(arr.max()) + 1),
            st.sampled_from(small).map(lambda v: v + 0.5),  # non-integral
            st.sampled_from([2**53 + 1, -(2**62)]),  # beyond float64's integers
        )
    )
    for encoding in ALL_ENCODINGS:
        _assert_bound_equals_decoded(
            encode_segment(arr, DataType.INT, encoding), literal
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="abé", max_size=4), min_size=1, max_size=80),
    st.data(),
)
def test_property_string_compare_agrees_across_encodings(values, data):
    width = max(1, max(len(v) for v in values))
    arr = np.array(values, dtype=f"<U{width}")
    present = st.sampled_from(values)
    literal = data.draw(
        st.one_of(
            present,
            present.map(lambda v: v + "!"),  # absent, right after a value
            st.just("A"),  # below every non-empty value
            st.just(chr(0x10FFFF)),  # above the maximum
            st.just(""),
            present.map(lambda v: v + "a" * width),  # wider than the dtype
            present.map(lambda v: v + "\0"),  # numpy ignores trailing NULs
            st.sampled_from(["é", "aé", "€"]),
        )
    )
    for encoding in STRING_ENCODINGS:
        _assert_bound_equals_decoded(
            encode_segment(arr, DataType.STRING, encoding), literal
        )


def _compare_before_bind(segment, op, value):
    """What each encoding's ``compare`` did to a literal before predicates
    were bound: numpy over the stored values, and for a dictionary a search
    that casts the literal to the dictionary's type."""
    if not isinstance(segment, DictionarySegment):
        return _compare_array(segment.values(), op, value)
    dictionary, codes = segment.dictionary, segment.codes
    left = int(np.searchsorted(dictionary, value, side="left"))
    right = int(np.searchsorted(dictionary, value, side="right"))
    if op in ("=", "!="):
        found = left < len(dictionary) and dictionary[left] == value
        mask = codes == left if found else np.zeros(len(codes), dtype=bool)
        return ~mask if op == "!=" else mask
    return {
        "<": codes < left,
        "<=": codes < right,
        ">": codes >= right,
        ">=": codes >= left,
    }[op]


def _outcome(compare, *args):
    try:
        return compare(*args).tolist()
    except Exception as exc:  # the type is the outcome under test
        return type(exc)


@pytest.mark.parametrize("encoding", STRING_ENCODINGS, ids=lambda e: e.value)
@pytest.mark.parametrize("op", COMPARISON_OPS)
@pytest.mark.parametrize("literal", [5, 2.5, None, b"a"], ids=repr)
def test_non_string_literal_on_string_column_is_left_alone(encoding, op, literal):
    segment = encode_segment(_str_values(), DataType.STRING, encoding)
    assert _outcome(segment.compare, op, literal) == _outcome(
        _compare_before_bind, segment, op, literal
    )
    assert segment._code_domain is None  # only a string literal builds it


@pytest.mark.parametrize(
    "encoding",
    [EncodingType.UNENCODED, EncodingType.RUN_LENGTH],
    ids=lambda e: e.value,
)
def test_bound_string_predicate_compares_unsigned_codes(encoding):
    """The point of binding: an execution never compares strings."""
    values = np.array(["open", "closed", "open", "urgent"] * 8, dtype="<U6")
    segment = encode_segment(values, DataType.STRING, encoding)
    bound = segment.bind("=", "open")
    if encoding is EncodingType.RUN_LENGTH:
        # the run mask, repeated by the run lengths
        (bound,) = (
            cell.cell_contents
            for cell in bound.__closure__
            if isinstance(cell.cell_contents, partial)
        )
    assert isinstance(bound, partial) and bound.func is operator.eq
    operand, code = bound.args
    assert operand.dtype.kind == "u" and isinstance(code, int)
    np.testing.assert_array_equal(segment.compare("=", "open"), values == "open")


@pytest.mark.parametrize("encoding", STRING_ENCODINGS, ids=lambda e: e.value)
def test_pickle_carries_no_derived_arrays(encoding):
    """Decoding a run-length segment, gathering from it or binding a string
    predicate derives host-side arrays; a pickle holds what it held."""
    values = np.array(["b", "b", "a", "c", "c", "c"] * 5, dtype="<U1")
    segment = encode_segment(values, DataType.STRING, encoding)
    before = pickle.dumps(segment)
    segment.take(np.array([0, 7, 29]))
    segment.compare("<=", "b")
    segment.values()
    assert pickle.dumps(segment) == before
    restored = pickle.loads(before)
    np.testing.assert_array_equal(restored.values(), values)
    np.testing.assert_array_equal(restored.compare("<=", "b"), values <= "b")


# ----------------------------------------------------------------------
# table-wide rows: one compare over many segments


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_column_rows_agree_with_each_segment(data):
    """Over any slice of whole segments, each in its own encoding,
    ``ColumnRows.bind_slice`` gives every segment's ``bind`` — wherever
    ``exact`` admits the literal — and ``take`` gives their decoded rows."""
    data_type = data.draw(st.sampled_from(list(DataType)))
    if data_type is DataType.STRING:
        element = st.text(alphabet="abé", max_size=3)
        literals = st.one_of(element, st.sampled_from(["A", "b\0", 5, None]))
    else:
        element = st.integers(-5, 5).map(lambda v: v + 2**60)
        if data_type is DataType.FLOAT:
            element = st.sampled_from([-1.5, 0.0, 0.5, 2.25])
        literals = st.one_of(
            element,
            element.map(lambda v: v + 1),
            st.sampled_from([0.5, 2**53 + 1, 2.0**60, float(2**60 + 3)]),
        )
    chunks = data.draw(st.lists(st.lists(element, min_size=1, max_size=12), min_size=1, max_size=4))
    segments = [
        encode_segment(
            np.array(values) if data_type is not DataType.STRING
            else np.array(values, dtype=f"<U{max(1, max(map(len, values)))}"),
            data_type,
            data.draw(st.sampled_from(supported_encodings(data_type))),
        )
        for values in chunks
    ]
    rows = ColumnRows(segments)
    first = data.draw(st.integers(0, len(segments) - 1))
    last = data.draw(st.integers(first, len(segments) - 1))
    start = 0
    for segment in segments[:first]:
        start += len(segment)
    stop = start
    for segment in segments[first : last + 1]:
        stop += len(segment)
    decoded = np.concatenate([s.values() for s in segments[first : last + 1]])
    taken = rows.take(start, stop, np.ones(stop - start, dtype=bool))
    np.testing.assert_array_equal(taken, decoded)
    if data_type is not DataType.STRING:  # strings: the widest chunk's width
        assert taken.dtype == decoded.dtype
    literal = data.draw(literals)
    if not rows.exact(literal):
        return
    for op in COMPARISON_OPS:
        expected = np.concatenate(
            [s.compare(op, literal) for s in segments[first : last + 1]]
        )
        np.testing.assert_array_equal(
            rows.bind_slice(start, stop, op, literal)(), expected
        )


def test_column_rows_refuse_what_encodings_disagree_on():
    """Where ``exact`` says no, some encoding does answer differently."""
    def disagree(values, data_type, op, literal):
        answers = set()
        for encoding in supported_encodings(data_type):
            segment = encode_segment(values, data_type, encoding)
            answers.add(repr(_outcome(segment.compare, op, literal)))
        return len(answers) > 1

    big = np.array([2**60, 2**60 + 1], dtype=np.int64)
    assert not ColumnRows([UnencodedSegment(big, DataType.INT)]).exact(2.0**60)
    assert disagree(big, DataType.INT, "=", 2.0**60)
    strings = _str_values()
    assert not ColumnRows([UnencodedSegment(strings, DataType.STRING)]).exact(5)
    assert disagree(strings, DataType.STRING, "<", 5)


def test_every_encoding_answers_nan_as_numpy():
    """A dictionary sorts NaN last, as one entry, yet NaN is above no
    bound and equal to nothing: every float encoding answers a NaN row,
    and a NaN literal, as numpy does — so a column with NaNs is exact."""
    values = np.array([1.0, np.nan, 2.0, np.nan, -3.0])
    rows = ColumnRows([UnencodedSegment(values, DataType.FLOAT)])
    assert rows.exact(1.5)
    for literal in (-5.0, -3.0, 1.5, 2.0, 9.0, np.nan):
        for op in COMPARISON_OPS:
            expected = _compare_array(values, op, literal)
            for encoding in supported_encodings(DataType.FLOAT):
                segment = encode_segment(values, DataType.FLOAT, encoding)
                np.testing.assert_array_equal(
                    segment.compare(op, literal), expected, (encoding, op, literal)
                )
    only_nan = DictionarySegment(np.array([np.nan, np.nan]), DataType.FLOAT)
    for op in COMPARISON_OPS:
        np.testing.assert_array_equal(
            only_nan.compare(op, 0.0), [op == "!="] * 2, op
        )


# ----------------------------------------------------------------------
# regression: frame-of-reference comparison beyond 2**53

def test_for_compare_int64_beyond_float53():
    """Literals and references beyond 2**53 must not round through float64.

    A float64 detour collapses 2**60 and 2**60 + 1 onto the same value, so
    the old decoded-domain comparison matched *both* rows for ``=``.
    """
    values = np.array([2**60, 2**60 + 1, 2**60 + 7], dtype=np.int64)
    segment = FrameOfReferenceSegment(values, DataType.INT)
    np.testing.assert_array_equal(segment.values(), values)
    np.testing.assert_array_equal(
        segment.compare("=", 2**60 + 1), [False, True, False]
    )
    np.testing.assert_array_equal(
        segment.compare("<=", 2**60), [True, False, False]
    )
    np.testing.assert_array_equal(
        segment.compare(">", 2**60 + 1), [False, False, True]
    )


def test_for_compare_out_of_range_is_constant_without_data():
    values = np.array([100, 105, 110], dtype=np.int64)
    segment = FrameOfReferenceSegment(values, DataType.INT)
    # proof of the fast path: an out-of-range literal never touches the
    # offsets, so the answer survives their removal
    segment._offsets = None
    np.testing.assert_array_equal(segment.compare("<", 99), [False] * 3)
    np.testing.assert_array_equal(segment.compare(">=", 99), [True] * 3)
    np.testing.assert_array_equal(segment.compare("=", 200), [False] * 3)
    np.testing.assert_array_equal(segment.compare("!=", 200), [True] * 3)
    np.testing.assert_array_equal(segment.compare(">", 200), [False] * 3)
    np.testing.assert_array_equal(segment.compare("<=", 200), [True] * 3)


def test_for_compare_non_integral_literal_decodes():
    values = np.array([1, 2, 3], dtype=np.int64)
    segment = FrameOfReferenceSegment(values, DataType.INT)
    np.testing.assert_array_equal(
        segment.compare("<", 2.5), [True, True, False]
    )
    # integral float literals take the integer-domain path
    np.testing.assert_array_equal(
        segment.compare("=", 2.0), [False, True, False]
    )


# ----------------------------------------------------------------------
# regression: run-length take without a full decode

def test_rle_take_skips_full_decode():
    values = np.array([4, 4, 4, 7, 7, 1, 1, 1, 1, 9], dtype=np.int64)
    segment = RunLengthSegment(values, DataType.INT)
    positions = np.array([0, 2, 3, 5, 8, 9], dtype=np.int64)
    np.testing.assert_array_equal(segment.take(positions), values[positions])
    # the point of the no-decode path: take() must not materialise all rows
    assert segment._decoded is None
    # once decoded (via values()), take() serves from the decoded array
    np.testing.assert_array_equal(segment.values(), values)
    np.testing.assert_array_equal(segment.take(positions), values[positions])

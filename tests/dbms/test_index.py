"""Tests for the sorted composite index, including the scan-equivalence
property that underwrites every index-based plan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms.index import SortedCompositeIndex
from repro.dbms.segments import EncodingType, encode_segment
from repro.dbms.types import DataType
from repro.errors import IndexError_


def _segments(encoding=EncodingType.UNENCODED, n=1_000, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a": encode_segment(rng.integers(0, 50, n), DataType.INT, encoding),
        "b": encode_segment(
            rng.choice(["x", "y", "z"], n), DataType.STRING,
            encoding
            if encoding is not EncodingType.FRAME_OF_REFERENCE
            else EncodingType.UNENCODED,
        ),
        "c": encode_segment(rng.integers(0, 10, n), DataType.INT, encoding),
    }


@pytest.mark.parametrize(
    "encoding", [EncodingType.UNENCODED, EncodingType.DICTIONARY]
)
def test_single_column_equality(encoding):
    segments = _segments(encoding)
    index = SortedCompositeIndex.build(["a"], segments)
    values = segments["a"].values()
    positions = index.lookup((7,))
    expected = np.flatnonzero(values == 7)
    np.testing.assert_array_equal(np.sort(positions), expected)


def test_missing_literal_returns_empty():
    segments = _segments(EncodingType.DICTIONARY)
    index = SortedCompositeIndex.build(["a"], segments)
    assert len(index.lookup((999,))) == 0


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
@pytest.mark.parametrize(
    "encoding", [EncodingType.UNENCODED, EncodingType.DICTIONARY]
)
def test_range_probe_on_first_column(op, encoding):
    segments = _segments(encoding)
    index = SortedCompositeIndex.build(["a"], segments)
    values = segments["a"].values()
    positions = index.lookup((), [(op, 25)])
    expected = {
        "<": values < 25,
        "<=": values <= 25,
        ">": values > 25,
        ">=": values >= 25,
    }[op]
    np.testing.assert_array_equal(np.sort(positions), np.flatnonzero(expected))


def test_two_sided_range():
    segments = _segments()
    index = SortedCompositeIndex.build(["a"], segments)
    values = segments["a"].values()
    positions = index.lookup((), [(">=", 10), ("<", 20)])
    expected = np.flatnonzero((values >= 10) & (values < 20))
    np.testing.assert_array_equal(np.sort(positions), expected)


def test_composite_equality_prefix_plus_range():
    segments = _segments()
    index = SortedCompositeIndex.build(["a", "c"], segments)
    a = segments["a"].values()
    c = segments["c"].values()
    positions = index.lookup((7,), [(">=", 5)])
    expected = np.flatnonzero((a == 7) & (c >= 5))
    np.testing.assert_array_equal(np.sort(positions), expected)


def test_composite_full_equality():
    segments = _segments(EncodingType.DICTIONARY)
    index = SortedCompositeIndex.build(["a", "b"], segments)
    a = segments["a"].values()
    b = segments["b"].values()
    positions = index.lookup((3, "y"))
    expected = np.flatnonzero((a == 3) & (b == "y"))
    np.testing.assert_array_equal(np.sort(positions), expected)


def test_dictionary_backed_index_is_smaller():
    plain = SortedCompositeIndex.build(["a"], _segments(EncodingType.UNENCODED))
    coded = SortedCompositeIndex.build(["a"], _segments(EncodingType.DICTIONARY))
    assert coded.memory_bytes() < plain.memory_bytes()


def test_probe_cost_grows_with_output():
    index = SortedCompositeIndex.build(["a"], _segments())
    assert index.probe_cost_units(1, 100) > index.probe_cost_units(1, 0)


def test_build_rejects_empty_and_duplicate_keys():
    segments = _segments()
    with pytest.raises(IndexError_):
        SortedCompositeIndex.build([], segments)
    with pytest.raises(IndexError_):
        SortedCompositeIndex.build(["a", "a"], segments)
    with pytest.raises(IndexError_):
        SortedCompositeIndex.build(["missing"], segments)


def test_prefix_longer_than_key_rejected():
    index = SortedCompositeIndex.build(["a"], _segments())
    with pytest.raises(IndexError_):
        index.lookup((1, 2))


def test_range_beyond_key_columns_rejected():
    index = SortedCompositeIndex.build(["a"], _segments())
    with pytest.raises(IndexError_):
        index.lookup((1,), [(">", 5)])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=300),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(["=", "<", "<=", ">", ">="]),
    st.sampled_from([EncodingType.UNENCODED, EncodingType.DICTIONARY]),
)
def test_property_index_equals_scan(values, literal, op, encoding):
    arr = np.array(values, dtype=np.int64)
    segments = {"a": encode_segment(arr, DataType.INT, encoding)}
    index = SortedCompositeIndex.build(["a"], segments)
    if op == "=":
        positions = index.lookup((literal,))
    else:
        positions = index.lookup((), [(op, literal)])
    expected = {
        "=": arr == literal,
        "<": arr < literal,
        "<=": arr <= literal,
        ">": arr > literal,
        ">=": arr >= literal,
    }[op]
    np.testing.assert_array_equal(
        np.sort(positions), np.flatnonzero(expected)
    )

"""Tests for column statistics and selectivity estimation."""

import numpy as np
import pytest

from repro.dbms.chunk import Chunk
from repro.dbms.schema import TableSchema
from repro.dbms.segments import COMPARISON_OPS
from repro.dbms.statistics import ColumnStatistics
from repro.dbms.types import DataType
from repro.workload.predicate import Predicate
from tests.reference import chunk_can_be_pruned


def test_numeric_statistics_basics():
    values = np.array([1, 2, 2, 3, 10], dtype=np.int64)
    stats = ColumnStatistics.from_values(values, DataType.INT)
    assert stats.row_count == 5
    assert stats.distinct_count == 4
    assert stats.min_value == 1.0
    assert stats.max_value == 10.0
    assert stats.histogram is not None


def test_string_statistics_basics():
    values = np.array(["b", "a", "b"], dtype="<U1")
    stats = ColumnStatistics.from_values(values, DataType.STRING)
    assert stats.distinct_count == 2
    assert stats.min_value == "a"
    assert stats.max_value == "b"
    assert stats.histogram is None


def test_empty_statistics():
    stats = ColumnStatistics.from_values(np.zeros(0, dtype=np.int64), DataType.INT)
    assert stats.row_count == 0
    assert stats.selectivity("=", 1) == 0.0


def test_equality_selectivity_uses_distinct_count():
    values = np.arange(100, dtype=np.int64)
    stats = ColumnStatistics.from_values(values, DataType.INT)
    assert stats.selectivity("=", 50) == pytest.approx(0.01)
    assert stats.selectivity("!=", 50) == pytest.approx(0.99)


def test_range_selectivity_is_monotonic():
    values = np.random.default_rng(0).uniform(0, 100, 5_000)
    stats = ColumnStatistics.from_values(values, DataType.FLOAT)
    s10 = stats.selectivity("<", 10)
    s50 = stats.selectivity("<", 50)
    s90 = stats.selectivity("<", 90)
    assert s10 < s50 < s90
    assert 0.05 < s10 < 0.2
    assert 0.4 < s50 < 0.6


def test_range_selectivity_out_of_bounds():
    values = np.arange(10, 20, dtype=np.int64)
    stats = ColumnStatistics.from_values(values, DataType.INT)
    assert stats.selectivity("<", 0) == 0.0
    assert stats.selectivity(">", 100) == 0.0
    assert stats.selectivity("<=", 100) == pytest.approx(1.0)


def test_string_selectivity_falls_back_to_uniform():
    values = np.array(["a", "b", "c", "d"], dtype="<U1")
    stats = ColumnStatistics.from_values(values, DataType.STRING)
    assert stats.selectivity("=", "a") == pytest.approx(0.25)
    assert stats.selectivity("<", "b") == 0.5


def test_merge_combines_disjoint_chunks():
    a = ColumnStatistics.from_values(np.arange(0, 50, dtype=np.int64), DataType.INT)
    b = ColumnStatistics.from_values(np.arange(50, 100, dtype=np.int64), DataType.INT)
    merged = a.merge(b)
    assert merged.row_count == 100
    assert merged.min_value == 0.0
    assert merged.max_value == 99.0
    assert merged.distinct_count >= 50


def test_merge_with_empty_is_identity():
    stats = ColumnStatistics.from_values(np.arange(10, dtype=np.int64), DataType.INT)
    empty = ColumnStatistics.from_values(np.zeros(0, dtype=np.int64), DataType.INT)
    assert empty.merge(stats) is stats
    assert stats.merge(empty) is stats


# ----------------------------------------------------------------------
# regression: chunks the engine holds whose statistics used to raise


def _middle_bin_only(stats, count):
    expected = np.zeros(32, dtype=np.int64)
    expected[16] = count
    np.testing.assert_array_equal(stats.histogram, expected)


def test_statistics_skip_nan_values():
    # numpy refused the range [nan, nan] that min and max gave
    stats = ColumnStatistics.from_values(np.array([1.0, np.nan]), DataType.FLOAT)
    assert stats.row_count == 2
    assert (stats.min_value, stats.max_value) == (1.0, 1.0)
    _middle_bin_only(stats, 1)


@pytest.mark.parametrize(
    "values, data_type",
    [
        (np.array([2**48, 2**48], dtype=np.int64), DataType.INT),
        (np.array([2.0**48]), DataType.FLOAT),
    ],
    ids=["int", "float"],
)
def test_one_value_beyond_2_47_lands_in_the_middle_bin(values, data_type):
    # numpy widens the range by 0.5 either side, which has no 32 distinct
    # bin edges this far out ("Too many bins for data range")
    stats = ColumnStatistics.from_values(values, data_type)
    assert stats.min_value == stats.max_value == float(values[0])
    _middle_bin_only(stats, len(values))


@pytest.mark.parametrize(
    "values", [np.array([5, 5]), np.array([2**46] * 3)], ids=["5", "2**46"]
)
def test_one_value_histogram_is_numpys_where_numpy_draws_it(values):
    stats = ColumnStatistics.from_values(values, DataType.INT)
    lo = float(values[0])
    expected, _edges = np.histogram(values.astype(float), bins=32, range=(lo, lo))
    np.testing.assert_array_equal(stats.histogram, expected)
    _middle_bin_only(stats, len(values))


def test_range_narrower_than_its_float_steps_still_bins():
    values = np.array([2.0**48, 2.0**48 + 0.25, 2.0**48 + 0.5])
    stats = ColumnStatistics.from_values(values, DataType.FLOAT)
    assert stats.histogram.sum() == 3
    assert stats.histogram[0] == stats.histogram[-1] == 1


def test_all_nan_chunk_never_prunes_a_row_a_scan_matches():
    schema = TableSchema.build("t", [("f", DataType.FLOAT)])
    chunk = Chunk(0, schema, {"f": np.array([np.nan, np.nan, np.nan])})
    stats = chunk.statistics("f")
    assert stats.row_count == 3
    assert stats.histogram.sum() == 0
    for op in COMPARISON_OPS:
        for literal in (-1.0, 0.0, 2.0**48, np.nan):
            pred = Predicate("f", op, literal)
            if chunk_can_be_pruned(chunk, [pred]):
                assert not chunk.segment("f").compare(op, literal).any(), pred
            if op in ("<", "<=", ">", ">="):
                assert stats.selectivity(op, literal) == 0.0
    assert not chunk_can_be_pruned(chunk, [Predicate("f", "!=", 1.0)])
    # a table's bounds skip the all-NaN chunk's
    other = ColumnStatistics.from_values(np.array([2.0, 3.0]), DataType.FLOAT)
    for merged in (stats.merge(other), other.merge(stats)):
        assert (merged.min_value, merged.max_value) == (2.0, 3.0)
        assert merged.row_count == 5

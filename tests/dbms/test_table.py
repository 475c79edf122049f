"""Tests for chunked tables."""

import numpy as np
import pytest

from repro.dbms.schema import TableSchema
from repro.dbms.table import Table
from repro.dbms.types import DataType
from repro.errors import SchemaError


def _table(chunk_size=100):
    schema = TableSchema.build("t", [("a", DataType.INT), ("b", DataType.FLOAT)])
    return Table(schema, target_chunk_size=chunk_size)


def test_append_splits_into_chunks():
    table = _table(chunk_size=100)
    ids = table.append({"a": np.arange(250), "b": np.zeros(250)})
    assert ids == [0, 1, 2]
    assert table.chunk_count == 3
    assert table.row_count == 250
    assert [c.row_count for c in table.chunks()] == [100, 100, 50]


def test_append_validates_columns():
    table = _table()
    with pytest.raises(SchemaError):
        table.append({"a": np.arange(10)})
    with pytest.raises(SchemaError):
        table.append({"a": np.arange(10), "b": np.zeros(9)})


def test_multiple_appends_extend_chunk_ids():
    table = _table(chunk_size=100)
    table.append({"a": np.arange(100), "b": np.zeros(100)})
    ids = table.append({"a": np.arange(100), "b": np.zeros(100)})
    assert ids == [1]


def test_create_index_on_subset_of_chunks():
    table = _table(chunk_size=100)
    table.append({"a": np.arange(300), "b": np.zeros(300)})
    touched = table.create_index(["a"], chunk_ids=[0, 2])
    assert [c.chunk_id for c in touched] == [0, 2]
    assert table.chunk(0).has_index(["a"])
    assert not table.chunk(1).has_index(["a"])
    # idempotent: re-creating only touches missing chunks
    touched = table.create_index(["a"])
    assert [c.chunk_id for c in touched] == [1]


def test_drop_index_reports_touched_chunks():
    table = _table(chunk_size=100)
    table.append({"a": np.arange(200), "b": np.zeros(200)})
    table.create_index(["a"])
    touched = table.drop_index(["a"], chunk_ids=[1])
    assert [c.chunk_id for c in touched] == [1]


def test_statistics_merge_across_chunks():
    table = _table(chunk_size=100)
    table.append({"a": np.arange(300), "b": np.zeros(300)})
    stats = table.statistics("a")
    assert stats.row_count == 300
    assert stats.min_value == 0
    assert stats.max_value == 299


def test_unknown_chunk_rejected():
    table = _table()
    table.append({"a": np.arange(10), "b": np.zeros(10)})
    with pytest.raises(SchemaError):
        table.chunk(99)


def test_invalid_chunk_size_rejected():
    schema = TableSchema.build("t", [("a", DataType.INT)])
    with pytest.raises(SchemaError):
        Table(schema, target_chunk_size=0)

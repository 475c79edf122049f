"""Tests for chunked tables."""

import pickle

import numpy as np
import pytest

from repro.dbms import Database
from repro.dbms.schema import TableSchema
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.dbms.table import Table
from repro.dbms.types import DataType
from repro.errors import SchemaError
from repro.workload.predicate import Predicate
from repro.workload.query import Query


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


# ----------------------------------------------------------------------
# table-wide rows: their lifetime is the row order's


def _string_table():
    schema = TableSchema.build(
        "t", [("a", DataType.INT), ("b", DataType.FLOAT), ("s", DataType.STRING)]
    )
    table = Table(schema, target_chunk_size=10)
    table.append(
        {
            "a": np.arange(25)[::-1],
            "b": np.linspace(0.0, 1.0, 25),
            "s": np.array(["x", "yy", "z"] * 8 + ["w"]),
        }
    )
    return table


def _decoded(table, column):
    rows = table.rows(column)
    return rows.take(0, table.row_count, np.ones(table.row_count, dtype=bool))


def test_table_rows_survive_encodings_indexes_and_tiers():
    table = _string_table()
    before = {name: table.rows(name) for name in ("a", "b", "s")}
    chunk = table.chunk(1)
    chunk.set_encoding("a", EncodingType.FRAME_OF_REFERENCE)
    chunk.set_encoding("s", EncodingType.DICTIONARY)
    chunk.set_encoding("b", EncodingType.RUN_LENGTH)
    table.create_index(["a"], chunk_ids=[0, 2])
    table.create_index(["s", "a"])
    table.drop_index(["a"], chunk_ids=[0])
    chunk.tier = StorageTier.SSD
    for name, rows in before.items():
        assert table.rows(name) is rows, name


def test_table_rows_are_rebuilt_after_a_sort_and_an_append():
    table = _string_table()
    rows = table.rows("a")
    table.chunk(0).sort_by("a")
    resorted = table.rows("a")
    assert resorted is not rows
    expected = np.concatenate([c.segment("a").values() for c in table.chunks()])
    np.testing.assert_array_equal(_decoded(table, "a"), expected)

    strings = table.rows("s")
    table.append({"a": [99], "b": [2.0], "s": ["longer"]})
    assert table.rows("a") is not resorted and table.rows("s") is not strings
    np.testing.assert_array_equal(
        _decoded(table, "s"),
        np.concatenate([c.segment("s").values() for c in table.chunks()]),
    )
    assert table.rows("s").widths == (2, 2, 2, 6)


def test_pickle_carries_no_table_rows():
    """Executing compiled plans derives table-wide rows (and string
    codes); a pickle of the table holds what it held before. (Compiling
    them derives chunk statistics, which a pickle does carry.)"""
    db = Database()
    table = db.create_table(_string_table().schema, target_chunk_size=10)
    table.append(
        {
            "a": np.arange(25),
            "b": np.linspace(0.0, 1.0, 25),
            "s": np.array(["x", "yy", "z"] * 8 + ["w"]),
        }
    )
    queries = (
        (Query("t", (Predicate("s", "=", "yy"),), aggregate="sum", aggregate_column="b"), False),
        (Query("t", (Predicate("a", ">", 3), Predicate("s", "!=", "z")), projection=("a", "s")), True),
        (Query("t", (Predicate("b", "<", 0.5),), aggregate="max", aggregate_column="s"), False),
    )
    for query, _materialize in queries:
        db.planner.plan_for(query, table)
    size = len(pickle.dumps(table))
    for query, materialize in queries:
        db.executor.execute(query, table, materialize=materialize)
    assert table.rows("s") is table.rows("s")  # derived, and memoised
    assert len(pickle.dumps(table)) == size

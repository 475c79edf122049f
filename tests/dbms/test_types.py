"""Tests for logical column types and coercion."""

import numpy as np
import pytest

from repro.dbms.types import DataType, coerce_array, numpy_dtype_for
from repro.errors import SchemaError


def test_int_coercion_from_list():
    arr = coerce_array([1, 2, 3], DataType.INT)
    assert arr.dtype == np.int64
    assert arr.tolist() == [1, 2, 3]


def test_int_coercion_accepts_integral_floats():
    arr = coerce_array(np.array([1.0, 2.0]), DataType.INT)
    assert arr.dtype == np.int64


def test_int_coercion_rejects_fractional_floats():
    with pytest.raises(SchemaError):
        coerce_array(np.array([1.5]), DataType.INT)


def test_int_coercion_rejects_strings():
    with pytest.raises(SchemaError):
        coerce_array(np.array(["a"]), DataType.INT)


def test_float_coercion():
    arr = coerce_array([1, 2.5], DataType.FLOAT)
    assert arr.dtype == np.float64
    assert arr.tolist() == [1.0, 2.5]


def test_string_coercion_widens_to_longest_value():
    arr = coerce_array(["a", "longer-string"], DataType.STRING)
    assert arr.dtype.kind == "U"
    assert arr[1] == "longer-string"


def test_string_coercion_from_numbers():
    arr = coerce_array([10, 20], DataType.STRING)
    assert arr.tolist() == ["10", "20"]


def test_numpy_dtype_for_numeric():
    assert numpy_dtype_for(DataType.INT) == np.dtype(np.int64)
    assert numpy_dtype_for(DataType.FLOAT) == np.dtype(np.float64)


def test_is_numeric():
    assert DataType.INT.is_numeric
    assert DataType.FLOAT.is_numeric
    assert not DataType.STRING.is_numeric

"""Column data types for the in-memory columnar engine.

The engine supports three logical types — 64-bit integers, 64-bit floats,
and fixed-width unicode strings — which is the minimum needed to express the
index-selection, compression, and placement workloads the framework tunes.
Values are stored in numpy arrays; :func:`coerce_array` normalises arbitrary
Python sequences into the canonical dtype for a logical type.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Logical column type."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.FLOAT)


def numpy_dtype_for(data_type: DataType, values: np.ndarray | None = None) -> np.dtype:
    """Canonical numpy dtype for a logical type.

    Strings use a fixed-width unicode dtype wide enough for ``values`` (or a
    default width of 16 characters when no values are given), so memory
    accounting is exact and ``searchsorted`` works without object arrays.
    """
    if data_type is DataType.INT:
        return np.dtype(np.int64)
    if data_type is DataType.FLOAT:
        return np.dtype(np.float64)
    if values is not None and values.size:
        width = max(1, int(max(len(str(v)) for v in values.tolist())))
    else:
        width = 16
    return np.dtype(f"<U{width}")


def coerce_array(values: Sequence | np.ndarray, data_type: DataType) -> np.ndarray:
    """Convert ``values`` into the canonical numpy array for ``data_type``.

    Raises :class:`SchemaError` when values cannot be represented losslessly
    (e.g. floats passed to an INT column).
    """
    arr = np.asarray(values)
    if data_type is DataType.INT:
        if arr.dtype.kind == "f":
            if not np.all(arr == np.floor(arr)):
                raise SchemaError("non-integral values for INT column")
            return arr.astype(np.int64)
        if arr.dtype.kind in ("i", "u"):
            return arr.astype(np.int64)
        if arr.dtype.kind == "b":
            return arr.astype(np.int64)
        raise SchemaError(f"cannot coerce dtype {arr.dtype} to INT")
    if data_type is DataType.FLOAT:
        if arr.dtype.kind in ("f", "i", "u", "b"):
            return arr.astype(np.float64)
        raise SchemaError(f"cannot coerce dtype {arr.dtype} to FLOAT")
    # STRING
    if arr.dtype.kind in ("U", "S", "O", "i", "u", "f"):
        str_arr = arr.astype(str)
        return str_arr.astype(numpy_dtype_for(DataType.STRING, str_arr))
    raise SchemaError(f"cannot coerce dtype {arr.dtype} to STRING")

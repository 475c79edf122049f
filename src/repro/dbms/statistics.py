"""Column statistics and selectivity estimation.

Logical cost estimation (and candidate enumeration) needs per-column
statistics: distinct counts, min/max, and an equi-width histogram for
numeric columns. These drive :meth:`ColumnStatistics.selectivity`, the
fraction of rows a single comparison predicate is expected to match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dbms.types import DataType

_HISTOGRAM_BINS = 32


def _histogram(numbers: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Equi-width counts of ``numbers`` over ``[lo, hi]``.

    numpy's own wherever it can draw the bins. It widens a one-value
    range by 0.5 either side, which puts every value in the middle bin —
    where it goes here without the widening, whose 32 bin edges run
    together from about 2**48 on. A range narrower than 32 float64 steps
    at its magnitude has no distinct edges either: there, a value's bin
    is its share of the range, as numpy computes it before snapping to
    an edge.
    """
    if lo == hi:
        counts = np.zeros(_HISTOGRAM_BINS, dtype=np.intp)
        counts[_HISTOGRAM_BINS // 2] = len(numbers)
        return counts
    edges = np.linspace(lo, hi, _HISTOGRAM_BINS + 1)
    if (edges[:-1] < edges[1:]).all():
        return np.histogram(numbers, bins=_HISTOGRAM_BINS, range=(lo, hi))[0]
    share = (numbers - lo) / (hi - lo)
    bins = (share * _HISTOGRAM_BINS).astype(np.intp)
    return np.bincount(
        np.minimum(bins, _HISTOGRAM_BINS - 1), minlength=_HISTOGRAM_BINS
    )


def _ignoring_nan(pick, a: float, b: float) -> float:
    """``pick(a, b)`` where a NaN bound — an all-NaN side's — is no bound."""
    return b if a != a else pick(a, b)


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics for one column (of a chunk or a whole table)."""

    data_type: DataType
    row_count: int
    distinct_count: int
    min_value: object | None
    max_value: object | None
    #: equi-width histogram over [min, max]; numeric columns only
    histogram: np.ndarray | None = field(default=None, compare=False)
    #: average decoded width of one value, in bytes (8 for numerics,
    #: 4 bytes/char for strings) — used by analytic output-cost estimation
    avg_item_bytes: float = 8.0

    @classmethod
    def from_values(cls, values: np.ndarray, data_type: DataType) -> "ColumnStatistics":
        if len(values) == 0:
            return cls(data_type, 0, 0, None, None, None)
        distinct = int(len(np.unique(values)))
        if data_type.is_numeric:
            # bounds and histogram describe the values a range predicate
            # can match; NaN matches none. An all-NaN chunk has NaN bounds:
            # every comparison with them is false, so zone maps prune it
            # under an ordered predicate only — which it fails on every row
            numbers = values.astype(np.float64)
            if values.dtype.kind == "f":
                numbers = numbers[~np.isnan(numbers)]
            if len(numbers) == 0:
                nan = float("nan")
                hist = np.zeros(_HISTOGRAM_BINS, dtype=np.intp)
                return cls(data_type, len(values), distinct, nan, nan, hist)
            lo = float(numbers.min())
            hi = float(numbers.max())
            hist = _histogram(numbers, lo, hi)
            return cls(data_type, len(values), distinct, lo, hi, hist)
        # numpy 2.x does not implement min/max reductions on unicode arrays;
        # sorted unique values give us both bounds in one pass.
        ordered = np.sort(np.unique(values))
        # numpy stores fixed-width UCS4 strings, so the effective per-value
        # width is 4 bytes times the longest value
        avg_width = 4.0 * float(
            np.max(np.char.str_len(values.astype(str)))
        )
        return cls(
            data_type,
            len(values),
            distinct,
            str(ordered[0]),
            str(ordered[-1]),
            None,
            avg_item_bytes=avg_width,
        )

    def merge(self, other: "ColumnStatistics") -> "ColumnStatistics":
        """Combine statistics of two disjoint row sets (e.g. two chunks).

        Distinct counts are combined with a max-based lower bound: exact
        merging would require the value sets; taking the max plus a fraction
        of the smaller side is the standard catalog approximation.
        """
        if self.row_count == 0:
            return other
        if other.row_count == 0:
            return self
        distinct = max(self.distinct_count, other.distinct_count) + int(
            0.5 * min(self.distinct_count, other.distinct_count)
        )
        total_rows = self.row_count + other.row_count
        avg_width = (
            self.avg_item_bytes * self.row_count
            + other.avg_item_bytes * other.row_count
        ) / total_rows
        if self.data_type.is_numeric and self.histogram is not None:
            lo = _ignoring_nan(min, float(self.min_value), float(other.min_value))
            hi = _ignoring_nan(max, float(self.max_value), float(other.max_value))
            hist = None
            if other.histogram is not None:
                hist = self.histogram + other.histogram
            return ColumnStatistics(
                self.data_type,
                total_rows,
                distinct,
                lo,
                hi,
                hist,
                avg_item_bytes=avg_width,
            )
        return ColumnStatistics(
            self.data_type,
            total_rows,
            distinct,
            min(self.min_value, other.min_value),
            max(self.max_value, other.max_value),
            None,
            avg_item_bytes=avg_width,
        )

    # ------------------------------------------------------------------

    def _numeric_range_fraction(self, lo: float, hi: float) -> float:
        """Fraction of rows with value in [lo, hi], from the histogram."""
        col_lo = float(self.min_value)
        col_hi = float(self.max_value)
        if hi < col_lo or lo > col_hi:
            return 0.0
        if col_hi == col_lo:
            return 1.0
        if self.histogram is None:
            # linear interpolation over the range
            span = col_hi - col_lo
            return max(0.0, (min(hi, col_hi) - max(lo, col_lo)) / span)
        width = (col_hi - col_lo) / len(self.histogram)
        total = float(self.histogram.sum())
        if total == 0:
            return 0.0
        covered = 0.0
        for i, count in enumerate(self.histogram):
            bin_lo = col_lo + i * width
            bin_hi = bin_lo + width
            overlap = min(hi, bin_hi) - max(lo, bin_lo)
            if overlap > 0 and bin_hi > bin_lo:
                covered += float(count) * overlap / width
        return min(1.0, covered / total)

    def between_selectivity(self, lo: float, hi: float) -> float:
        """Joint fraction of rows in [lo, hi] — for two-sided ranges on one
        column, where multiplying the one-sided selectivities (independence)
        would wildly overestimate."""
        if self.row_count == 0 or not self.data_type.is_numeric:
            return 0.25  # conservative default for non-numeric bounds
        if hi < lo:
            return 0.0
        return self._numeric_range_fraction(float(lo), float(hi))

    def equal_selectivity(self) -> float:
        """Expected fraction of rows one equality matches: uniform over
        the distinct values, whatever the literal."""
        if self.row_count == 0:
            return 0.0
        return 1.0 / max(self.distinct_count, 1)

    def selectivity(self, op: str, value: object) -> float:
        """Expected fraction of rows satisfying ``column <op> value``."""
        if self.row_count == 0:
            return 0.0
        uniform_eq = self.equal_selectivity()
        if not self.data_type.is_numeric:
            if op == "=":
                return uniform_eq
            if op == "!=":
                return 1.0 - uniform_eq
            # ordered string comparisons: assume a uniform rank
            return 0.5
        v = float(value)
        if op == "=":
            return min(1.0, uniform_eq)
        if op == "!=":
            return max(0.0, 1.0 - uniform_eq)
        col_lo = float(self.min_value)
        col_hi = float(self.max_value)
        if op in ("<", "<="):
            frac = self._numeric_range_fraction(col_lo, v)
        else:
            frac = self._numeric_range_fraction(v, col_hi)
        return float(min(1.0, max(0.0, frac)))

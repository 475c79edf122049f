"""Integration: sort order inside the dependence/ordering machinery.

The sort feature is the strongest one-directional dependence generator in
the feature set: sorting enables run-length compression, so sort-before-
compression should dominate, and the LP should schedule sort first.
"""

import pytest

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.cost.what_if import WhatIfOptimizer
from repro.ordering import LPOrderOptimizer, RecursiveTuningPlanner
from repro.tuning import CompressionFeature, SortOrderFeature, Tuner
from repro.util.units import MIB

from tests.conftest import make_forecast


def test_sort_before_compression_dependence(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(
        retail_suite, families=["status_count", "region_revenue", "urgent_open"]
    )
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(SortOrderFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
    ]
    planner = RecursiveTuningPlanner(tuners, constraints)
    matrix = planner.measure(forecast)

    # sorting first, then compressing, must be at least as good as the
    # reverse (compression on unsorted data never picks run-length)
    d = matrix.d("sort_order", "compression")
    assert d >= 1.0
    w_sort_comp = matrix.w_pair[("sort_order", "compression")]
    w_comp_sort = matrix.w_pair[("compression", "sort_order")]
    assert w_sort_comp <= w_comp_sort * 1.01

    solution = LPOrderOptimizer().optimize(matrix)
    assert solution.order.index("sort_order") < solution.order.index(
        "compression"
    ) or d == pytest.approx(1.0)


def test_recursive_run_with_sort_feature_improves(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(
        retail_suite, families=["status_count", "region_revenue"]
    )
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(SortOrderFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
    ]
    planner = RecursiveTuningPlanner(tuners)
    report = planner.run(forecast, order=("sort_order", "compression"))
    assert report.improvement > 0.3
    # the sort was actually applied
    assert any(
        chunk.sort_column is not None
        for chunk in db.table("orders").chunks()
    )

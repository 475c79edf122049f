"""E10 — §III with a strong one-directional dependence: sort order.

The sort-order feature (the paper's "partitioning scheme"-class example)
creates the sharpest dependence in the feature set: sorting by itself does
nothing — its entire benefit is *enabling* run-length compression — so
``d(sort_order, compression)`` should clearly exceed 1, the LP must
schedule sort before compression, and running the recursive tuning in the
reversed order must forfeit most of the benefit.
"""

from __future__ import annotations

from conftest import make_forecast, save_table

from repro.configuration import ConstraintSet, INDEX_MEMORY, ResourceBudget
from repro.cost import WhatIfOptimizer
from repro.ordering import (
    LPOrderOptimizer,
    RecursiveTuningPlanner,
    ordering_objective,
)
from repro.tuning import (
    CompressionFeature,
    IndexSelectionFeature,
    SortOrderFeature,
    Tuner,
)
from repro.util.units import MIB
from repro.workload import build_retail_suite

#: scan-heavy families over low-cardinality columns: the sort+RLE sweet spot
FAMILIES = ["status_count", "region_revenue", "urgent_open", "point_customer"]


def _fresh():
    suite = build_retail_suite(
        orders_rows=25_000, inventory_rows=6_000, chunk_size=8_192
    )
    db = suite.database
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(SortOrderFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
        Tuner(IndexSelectionFeature(), optimizer),
    ]
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    return suite, db, tuners, constraints


def test_e10_sort_enabled_ordering(benchmark):
    suite, db, tuners, constraints = _fresh()
    forecast = make_forecast(suite, families=FAMILIES)
    planner = RecursiveTuningPlanner(tuners, constraints)

    matrix = benchmark.pedantic(
        lambda: planner.measure(forecast), rounds=1, iterations=1
    )
    solution = LPOrderOptimizer().optimize(matrix)

    d_rows = [
        [
            a,
            b,
            round(matrix.w_pair[(a, b)], 3),
            round(matrix.w_pair[(b, a)], 3),
            round(matrix.d(a, b), 4),
        ]
        for a in matrix.features
        for b in matrix.features
        if a < b
    ]
    save_table(
        "e10_sort_dependence",
        ["A", "B", "W_AB_ms", "W_BA_ms", "d_AB"],
        d_rows,
        f"E10a: dependence with sort order (W_∅ = {matrix.w_empty:.3f} ms); "
        f"LP order: {' -> '.join(solution.order)}",
    )

    orders = {
        "lp": solution.order,
        "lp-reversed": tuple(reversed(solution.order)),
        "compression-first": (
            "compression",
            "sort_order",
            "index_selection",
        ),
    }
    rows = []
    outcomes = {}
    for name, order in orders.items():
        r_suite, r_db, r_tuners, r_constraints = _fresh()
        r_forecast = make_forecast(r_suite, families=FAMILIES)
        r_planner = RecursiveTuningPlanner(r_tuners, r_constraints)
        report = r_planner.run(r_forecast, order=order)
        outcomes[name] = report.final_cost_ms
        rows.append(
            [
                name,
                " -> ".join(order),
                round(ordering_objective(matrix, order), 3),
                round(report.final_cost_ms, 3),
                f"{100 * report.improvement:.1f}%",
            ]
        )
    save_table(
        "e10_sort_ordering",
        ["strategy", "order", "lp_objective", "final_ms", "improvement"],
        rows,
        "E10b: recursive tuning with the sort feature, per order",
    )

    # the sharp one-directional dependence
    assert matrix.d("sort_order", "compression") > 1.1
    assert solution.order.index("sort_order") < solution.order.index(
        "compression"
    )
    # tuning in the LP order clearly beats compressing before sorting
    assert outcomes["lp"] < outcomes["compression-first"] * 0.999
    assert outcomes["lp"] <= outcomes["lp-reversed"]

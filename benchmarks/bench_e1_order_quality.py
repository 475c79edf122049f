"""E1 — Section III-B: does the LP-chosen tuning order beat naive orders?

For each candidate order (LP, exhaustive oracle, impact heuristic, pairwise
heuristic, random, and the LP order reversed) the full recursive tuning is
run on a fresh copy of the database under the same budgets; the final
expected-workload cost decides. The LP order should match the oracle and
dominate the naive orders.
"""

from __future__ import annotations

import pytest
from conftest import make_forecast, save_table

from repro.configuration import (
    ConstraintSet,
    DRAM_BYTES,
    INDEX_MEMORY,
    ResourceBudget,
)
from repro.cost import WhatIfOptimizer
from repro.ordering import (
    BruteForceOrderOptimizer,
    LPOrderOptimizer,
    RecursiveTuningPlanner,
    impact_order,
    ordering_objective,
    pairwise_heuristic_order,
    random_order,
)
from repro.tuning import (
    CompressionFeature,
    DataPlacementFeature,
    IndexSelectionFeature,
    Tuner,
)
from repro.util.units import MIB
from repro.workload import build_retail_suite

ORDERS_ROWS = 25_000
INVENTORY_ROWS = 6_000


def _constraints(db):
    data_total = sum(
        c.memory_bytes() for t in db.catalog.tables() for c in t.chunks()
    )
    return ConstraintSet(
        [
            ResourceBudget(INDEX_MEMORY, 1 * MIB),
            # force some eviction pressure: 85% of data fits in DRAM
            ResourceBudget(DRAM_BYTES, int(0.85 * data_total)),
        ]
    )


def _fresh():
    suite = build_retail_suite(
        orders_rows=ORDERS_ROWS, inventory_rows=INVENTORY_ROWS, chunk_size=8_192
    )
    db = suite.database
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(IndexSelectionFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
        Tuner(DataPlacementFeature(), optimizer),
    ]
    return suite, db, tuners


def test_e1_order_quality(benchmark):
    # measure the dependence matrix once, on a reference copy
    suite, db, tuners = _fresh()
    forecast = make_forecast(suite)
    constraints = _constraints(db)
    planner = RecursiveTuningPlanner(tuners, constraints)
    matrix = planner.measure(forecast)

    lp_solution = benchmark(lambda: LPOrderOptimizer().optimize(matrix))
    oracle = BruteForceOrderOptimizer().optimize(matrix)

    candidate_orders = {
        "lp": lp_solution.order,
        "exhaustive-oracle": oracle.order,
        "impact-heuristic": impact_order(matrix),
        "pairwise-heuristic": pairwise_heuristic_order(matrix),
        "random": random_order(matrix, seed=13),
        "lp-reversed": tuple(reversed(lp_solution.order)),
    }

    rows = []
    final_costs = {}
    for name, order in candidate_orders.items():
        run_suite, run_db, run_tuners = _fresh()
        run_forecast = make_forecast(run_suite)
        run_planner = RecursiveTuningPlanner(run_tuners, _constraints(run_db))
        report = run_planner.run(run_forecast, order=order)
        final_costs[name] = report.final_cost_ms
        rows.append(
            [
                name,
                " -> ".join(order),
                round(ordering_objective(matrix, order), 3),
                round(report.initial_cost_ms, 3),
                round(report.final_cost_ms, 3),
                f"{100 * report.improvement:.1f}%",
            ]
        )
    rows.sort(key=lambda r: r[4])
    save_table(
        "e1_order_quality",
        ["strategy", "order", "lp_objective", "W_empty_ms", "final_ms", "improvement"],
        rows,
        "E1: recursive tuning outcome per ordering strategy",
    )

    assert lp_solution.objective == pytest.approx(oracle.objective)
    # the LP order's outcome is at least as good as random and reversal
    assert final_costs["lp"] <= final_costs["random"] * 1.02
    assert final_costs["lp"] <= final_costs["lp-reversed"] * 1.02

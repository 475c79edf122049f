"""Section III walkthrough: dependence ratios and the LP-based tuning order.

Measures W_∅, every W_A, and every W_{A,B} for three features on the retail
workload, prints the dependence matrix, solves the paper's integer LP, and
compares the outcome of recursive tuning under the LP order against naive
orders — the evaluation Section V of the paper calls for.

Run:  python examples/multi_feature_ordering.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ConstraintSet,
    RecursiveTuningPlanner,
    ResourceBudget,
    Tuner,
    WhatIfOptimizer,
)
from repro.configuration import DRAM_BYTES, INDEX_MEMORY
from repro.forecasting.scenarios import point_forecast
from repro.ordering import (
    BruteForceOrderOptimizer,
    LPOrderOptimizer,
    impact_per_cost_ranking,
    ordering_objective,
    random_order,
)
from repro.tuning import (
    CompressionFeature,
    DataPlacementFeature,
    IndexSelectionFeature,
)
from repro.util.tables import render_table
from repro.util.units import MIB
from repro.workload import build_retail_suite


def make_forecast(suite):
    rng = np.random.default_rng(5)
    samples = {}
    frequencies = {}
    for family in suite.families.values():
        query = family.sample(rng)
        samples[query.template().key] = query
        frequencies[query.template().key] = 10.0
    return point_forecast(frequencies, samples)


def fresh_setup():
    suite = build_retail_suite(orders_rows=40_000, inventory_rows=10_000)
    db = suite.database
    data_total = sum(
        chunk.memory_bytes()
        for table in db.catalog.tables()
        for chunk in table.chunks()
    )
    constraints = ConstraintSet(
        [
            ResourceBudget(INDEX_MEMORY, 2 * MIB),
            ResourceBudget(DRAM_BYTES, int(0.85 * data_total)),
        ]
    )
    # one what-if optimizer per database: every tuner and the planner
    # share its cost cache
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(IndexSelectionFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
        Tuner(DataPlacementFeature(), optimizer),
    ]
    return suite, db, tuners, constraints


def main() -> None:
    suite, db, tuners, constraints = fresh_setup()
    forecast = make_forecast(suite)
    planner = RecursiveTuningPlanner(tuners, constraints)

    print("measuring W_0, W_A, and W_{A,B} (sandboxed tuning runs)...")
    matrix = planner.measure(forecast)
    print(f"\nW_0 (no optimization) = {matrix.w_empty:.3f} ms\n")

    print(
        render_table(
            ["feature", "W_A", "impact W0/W_A", "tuning cost ms"],
            [
                [f, round(matrix.w_single[f], 3), round(matrix.impact(f), 3),
                 round(matrix.tuning_cost_ms[f], 2)]
                for f in matrix.features
            ],
            title="single-feature impacts",
        )
    )
    print()
    print(
        render_table(
            ["A", "B", "W_AB", "W_BA", "d_AB", "tune first"],
            [
                [a, b, round(matrix.w_pair[(a, b)], 3),
                 round(matrix.w_pair[(b, a)], 3), round(matrix.d(a, b), 4),
                 a if matrix.d(a, b) > 1 else b]
                for a in matrix.features
                for b in matrix.features
                if a < b
            ],
            title="pairwise dependence ratios d_AB = W_BA / W_AB",
        )
    )

    lp = LPOrderOptimizer().optimize(matrix)
    oracle = BruteForceOrderOptimizer().optimize(matrix)
    print(f"\nLP model: {lp.n_variables} variables, {lp.n_constraints} "
          f"constraints (= 2|S|^2-|S| and 2|S|^2 for |S|=3)")
    print(f"LP order:       {' -> '.join(lp.order)}  "
          f"(objective {lp.objective:.3f}, solved in {lp.solve_seconds * 1e3:.1f} ms)")
    print(f"oracle order:   {' -> '.join(oracle.order)}  "
          f"(objective {oracle.objective:.3f})")

    print("\nimpact-per-cost ranking (for tuning-time budgets):")
    for rank, (feature, score) in enumerate(impact_per_cost_ranking(matrix), 1):
        print(f"  {rank}. {feature} ({score:.3f})")

    # recursive tuning under competing orders, each on a fresh database
    print("\nrecursive tuning outcome per order:")
    candidates = {
        "lp": lp.order,
        "random": random_order(matrix, seed=3),
        "reversed-lp": tuple(reversed(lp.order)),
    }
    for name, order in candidates.items():
        r_suite, r_db, r_tuners, r_constraints = fresh_setup()
        r_forecast = make_forecast(r_suite)
        r_planner = RecursiveTuningPlanner(r_tuners, r_constraints)
        report = r_planner.run(r_forecast, order=order)
        print(
            f"  {name:12s} {' -> '.join(order):55s} "
            f"{report.initial_cost_ms:7.3f} -> {report.final_cost_ms:7.3f} ms "
            f"({100 * report.improvement:5.1f}%)  "
            f"objective={ordering_objective(matrix, order):.3f}"
        )


if __name__ == "__main__":
    main()

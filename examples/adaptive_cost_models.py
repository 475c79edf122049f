"""Adaptive cost estimation in production mode (paper Section V, implemented).

Shows the learned-cost-model life cycle:

1. startup calibration ("a minimal set of queries is run to create
   training data for a specialized cost model");
2. design exploration (probing calibration queries under temporarily
   built indexes, so the model can price designs it has never seen live);
3. continuous maintenance from plan-cache harvests during operation;
4. the driver's ``fast_assessment`` mode: tuning candidates priced by the
   maintained model instead of measured what-if execution.

Run:  python examples/adaptive_cost_models.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    ConstraintSet,
    Driver,
    DriverConfig,
    OrganizerConfig,
    ResourceBudget,
    WhatIfOptimizer,
)
from repro.configuration import INDEX_MEMORY
from repro.core import NeverTrigger
from repro.cost import (
    LearnedCostModel,
    run_design_exploration,
    run_startup_calibration,
)
from repro.tuning import CompressionFeature, IndexSelectionFeature
from repro.util.units import MIB
from repro.workload import Predicate, Query, build_retail_suite


def median_relative_error(db, model, queries) -> float:
    errors = []
    for query in queries:
        actual = db.executor.execute(
            query, db.table(query.table), probe=True
        ).report.elapsed_ms
        errors.append(abs(model.estimate_query_ms(query) - actual) / actual)
    return float(np.median(errors))


def main() -> None:
    suite = build_retail_suite(orders_rows=40_000, inventory_rows=10_000)
    db = suite.database
    probe_queries = suite.mix.sample_queries(30, seed=9)

    # --- life cycle stages 1-2 -------------------------------------------
    model = LearnedCostModel(db)
    n = run_startup_calibration(db, model, seed=1)
    print(f"startup calibration: {n} queries executed")
    print(f"  median relative error: "
          f"{median_relative_error(db, model, probe_queries):.3f}")
    added = run_design_exploration(db, model, seed=1)
    print(f"design exploration: {added} what-if observations added")

    # the explored model prices hypothetical indexes sensibly
    query = Query("orders", (Predicate("customer", "=", 42),), aggregate="count")
    before = model.estimate_query_ms(query)
    db.create_index("orders", ["customer"])
    after = model.estimate_query_ms(query)
    print(f"  estimate without index: {before:.4f} ms; with index: {after:.4f} ms")
    db.drop_index("orders", ["customer"])

    # --- stages 3-4: the driver in fast-assessment mode ------------------
    driver = Driver(
        [IndexSelectionFeature(), CompressionFeature()],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 4 * MIB)]),
        triggers=[NeverTrigger()],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3),
            fast_assessment=True,
        ),
    )
    db.plugin_host.attach(driver)
    ctx = driver.context
    for i in range(4):
        for q in suite.mix.sample_queries(30, seed=500 + i):
            db.execute(q)
        db.plugin_host.tick(db.clock.now_ms)
    print(f"\nmaintenance harvested "
          f"{ctx.cost_maintenance.observations_harvested} observations "
          "from the plan cache")

    forecast = ctx.predictor.forecast(horizon_bins=3)
    optimizer = WhatIfOptimizer(db)
    samples = dict(forecast.sample_queries)
    before_cost = optimizer.scenario_cost_ms(forecast.expected, samples)
    started = time.perf_counter()
    report = driver.tune_now()
    wall = time.perf_counter() - started
    after_cost = optimizer.scenario_cost_ms(forecast.expected, samples)
    print(f"fast-assessment tuning pass ({wall:.2f} s wall): "
          f"{before_cost:.3f} -> {after_cost:.3f} ms "
          f"({100 * (1 - after_cost / max(before_cost, 1e-9)):.1f}%)")
    print("applied:")
    for run in report.tuning.runs:
        for summary in run.report.action_summaries:
            print("   ", summary)


if __name__ == "__main__":
    main()

"""Adaptive cost estimation (paper Sections II-A.d and V).

Shows the learned-cost-model life cycle:

1. startup calibration ("a minimal set of queries is run to create
   training data for a specialized cost model");
2. design exploration (probing calibration queries under temporarily
   built indexes, so the model can price designs it has never seen live);
3. pricing a tuning candidate with the model, as paper experiment A1
   does: ``CostModelAssessor(WhatIfOptimizer(db, model))`` beside the
   measured what-if optimizer the live loop prices with.

Run:  python examples/adaptive_cost_models.py
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro import WhatIfOptimizer
from repro.cost import (
    LearnedCostModel,
    run_design_exploration,
    run_startup_calibration,
)
from repro.forecasting import EXPECTED_SCENARIO, Forecast, WorkloadScenario
from repro.tuning import CostModelAssessor, IndexCandidate
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

    # --- stage 3: one tuning candidate, priced as A1 prices it -----------
    queries = suite.mix.sample_queries(60, seed=500)
    samples = {q.template().key: q for q in queries}
    frequencies = Counter(q.template().key for q in queries)
    forecast = Forecast(
        scenarios=(WorkloadScenario(EXPECTED_SCENARIO, 1.0, frequencies),),
        horizon_bins=1,
        bin_duration_ms=60_000.0,
        sample_queries=samples,
    )
    candidate = IndexCandidate("orders", ("customer",))
    print(f"\npricing {candidate.describe()} over {len(queries)} queries:")
    for name, optimizer in (
        ("measured what-if", WhatIfOptimizer(db)),
        ("learned model", WhatIfOptimizer(db, model)),
    ):
        started = time.perf_counter()
        [assessment] = CostModelAssessor(optimizer).assess(
            [candidate], db, forecast
        )
        wall = time.perf_counter() - started
        print(f"  {name:16s} benefit "
              f"{assessment.desirability[EXPECTED_SCENARIO]:8.3f} ms, "
              f"confidence {assessment.confidence:.2f} ({wall * 1e3:.1f} ms wall)")


if __name__ == "__main__":
    main()

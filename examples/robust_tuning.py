"""Robust tuning: scenario-aware selection vs expected-case optimization.

The workload predictor produces forecasts with multiple scenarios; the
robust selectors of Section II-D.c use the per-scenario desirabilities to
hedge. This demo tunes indexes twice under a tight memory budget — once
seeing only the expected scenario, once with the worst-case criterion —
and evaluates both configurations in the world where the shift happened.

Run:  python examples/robust_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro import ConstraintSet, ResourceBudget, Tuner, WhatIfOptimizer
from repro.configuration import INDEX_MEMORY
from repro.forecasting.scenarios import (
    EXPECTED_SCENARIO,
    WORST_CASE_SCENARIO,
    Forecast,
    WorkloadScenario,
)
from repro.tuning import (
    IndexSelectionFeature,
    OptimalSelector,
    RobustSelector,
)
from repro.util.units import KIB
from repro.workload import build_retail_suite

BUDGET = 400 * KIB


def scenario_forecast(suite):
    rng = np.random.default_rng(7)
    samples = {}
    for name, family in suite.families.items():
        query = family.sample(rng)
        samples[name] = (query.template().key, query)

    def freq(weights):
        return {samples[n][0]: w for n, w in weights.items()}

    expected = freq(
        {"point_customer": 40.0, "id_lookup": 25.0, "customer_recent": 10.0,
         "quantity_range": 3.0, "low_stock": 2.0}
    )
    shifted = freq(
        {"point_customer": 4.0, "id_lookup": 2.0, "customer_recent": 1.0,
         "quantity_range": 40.0, "low_stock": 25.0}
    )
    forecast = Forecast(
        scenarios=(
            WorkloadScenario(EXPECTED_SCENARIO, 0.7, expected),
            WorkloadScenario(WORST_CASE_SCENARIO, 0.3, shifted),
        ),
        horizon_bins=4,
        bin_duration_ms=60_000.0,
        sample_queries={key: q for key, q in samples.values()},
    )
    return forecast, WorkloadScenario("future", 1.0, shifted)


def main() -> None:
    suite = build_retail_suite(
        orders_rows=30_000, inventory_rows=8_000, chunk_size=8_192
    )
    db = suite.database
    forecast, shifted_future = scenario_forecast(suite)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, BUDGET)])
    optimizer = WhatIfOptimizer(db)
    samples = dict(forecast.sample_queries)

    expected_only = Forecast(
        scenarios=(
            WorkloadScenario(EXPECTED_SCENARIO, 1.0, forecast.expected.frequencies),
        ),
        horizon_bins=4,
        bin_duration_ms=60_000.0,
        sample_queries=samples,
    )

    policies = {
        "expected-only (optimal)": (OptimalSelector(), expected_only),
        "robust worst-case": (
            RobustSelector(OptimalSelector(), "worst_case"),
            forecast,
        ),
        "robust mean-variance": (
            RobustSelector(OptimalSelector(), "mean_variance", risk_aversion=1.5),
            forecast,
        ),
        "robust value-at-risk": (
            RobustSelector(OptimalSelector(), "value_at_risk", alpha=0.25),
            forecast,
        ),
    }

    print(f"index memory budget: {BUDGET // KIB} KiB\n")
    for name, (selector, policy_forecast) in policies.items():
        tuner = Tuner(IndexSelectionFeature(), optimizer, selector=selector)
        result = tuner.propose(policy_forecast, constraints)
        with optimizer.hypothetical(result.delta):
            expected_cost = optimizer.scenario_cost_ms(
                forecast.expected, samples
            )
            shifted_cost = optimizer.scenario_cost_ms(shifted_future, samples)
        print(f"{name}:")
        for assessment in result.chosen:
            print(f"    {assessment.candidate.describe()}")
        print(
            f"    cost if future is as expected: {expected_cost:7.3f} ms | "
            f"cost if the shift happens: {shifted_cost:7.3f} ms"
        )
        print()


if __name__ == "__main__":
    main()

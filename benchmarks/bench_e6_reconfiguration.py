"""E6 — Section II-D.b: reconfiguration costs find minimally invasive changes.

Repeated tuning rounds under a jittering workload: the per-round forecasts
fluctuate (as real forecasts do), so a tuner that ignores one-time costs
(λ = 0) keeps churning indexes whose marginal benefit does not pay for
their build cost. Sweeping the reconfiguration weight λ should show
configuration churn (applied actions) falling monotonically-ish while the
final workload cost stays close — "balance performance improvements and
reconfigurations to identify minimally invasive changes".
"""

from __future__ import annotations

import numpy as np
from conftest import save_table

from repro.configuration import ConstraintSet, INDEX_MEMORY, ResourceBudget
from repro.cost import WhatIfOptimizer
from repro.forecasting.scenarios import point_forecast
from repro.tuning import IndexSelectionFeature, Tuner
from repro.util.rng import derive_rng
from repro.util.units import MIB
from repro.workload import build_retail_suite

LAMBDAS = (0.0, 0.5, 2.0, 8.0)
ROUNDS = 6


def _jittered_forecast(suite, round_index: int):
    rng = derive_rng(99, f"e6-round-{round_index}")
    sample_rng = np.random.default_rng(12345)
    frequencies = {}
    samples = {}
    for name, family in suite.families.items():
        query = family.sample(sample_rng)
        key = query.template().key
        samples[key] = query
        frequencies[key] = float(10.0 * rng.lognormal(0.0, 0.6))
    return point_forecast(frequencies, samples)


def test_e6_reconfiguration_balancing(benchmark):
    rows = []
    churn_by_lambda = {}
    for weight in LAMBDAS:
        suite = build_retail_suite(
            orders_rows=25_000, inventory_rows=6_000, chunk_size=8_192
        )
        db = suite.database
        constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
        tuner = Tuner(
            IndexSelectionFeature(),
            WhatIfOptimizer(db),
            reconfiguration_weight=weight,
        )
        total_actions = 0
        total_reconf_ms = 0.0
        for round_index in range(ROUNDS):
            forecast = _jittered_forecast(suite, round_index)
            result, report = tuner.tune(forecast, constraints)
            total_actions += report.action_count
            total_reconf_ms += report.total_work_ms
        reference = _jittered_forecast(suite, 0)
        final_cost = WhatIfOptimizer(db).scenario_cost_ms(
            reference.expected, dict(reference.sample_queries)
        )
        churn_by_lambda[weight] = total_actions
        rows.append(
            [
                weight,
                total_actions,
                round(total_reconf_ms, 2),
                round(final_cost, 3),
                db.counters.reconfigurations,
            ]
        )
    save_table(
        "e6_reconfiguration",
        [
            "lambda",
            "applied_actions",
            "total_reconfig_ms",
            "final_workload_ms",
            "db_reconfigurations",
        ],
        rows,
        "E6: configuration churn vs reconfiguration weight (6 jittered rounds)",
    )

    # higher weights churn (weakly) less; the extremes differ strictly
    assert churn_by_lambda[LAMBDAS[-1]] < churn_by_lambda[LAMBDAS[0]]
    weights = list(LAMBDAS)
    for earlier, later in zip(weights, weights[1:]):
        assert churn_by_lambda[later] <= churn_by_lambda[earlier] + 2

    # benchmark kernel: one cautious tuning proposal
    suite = build_retail_suite(
        orders_rows=25_000, inventory_rows=6_000, chunk_size=8_192
    )
    tuner = Tuner(
        IndexSelectionFeature(),
        WhatIfOptimizer(suite.database),
        reconfiguration_weight=2.0,
    )
    forecast = _jittered_forecast(suite, 0)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    benchmark(lambda: tuner.propose(forecast, constraints))

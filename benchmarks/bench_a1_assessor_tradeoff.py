"""A1 (ablation) — §II-D.b: "Choosing an assessor is a trade-off between
accuracy and runtime."

The same index-selection run is driven by four assessors: measured what-if
execution (the accuracy ceiling), the analytic physical model, the adaptive
learned model (calibrated at startup), and the simple logical model (blind
to physical design). For each: assessment wall time and the *realized*
workload-cost improvement of the resulting selection, measured by probe
execution. Expected shape: measured ≥ physical ≈ learned ≫ logical in
quality; logical/physical/learned much faster than measured.
"""

from __future__ import annotations

import time

from conftest import make_forecast, save_table

from repro.configuration import ConstraintSet, INDEX_MEMORY, ResourceBudget
from repro.cost import (
    LearnedCostModel,
    LogicalCostModel,
    PhysicalCostModel,
    WhatIfOptimizer,
    run_design_exploration,
    run_startup_calibration,
)
from repro.tuning import CostModelAssessor, IndexSelectionFeature, Tuner
from repro.util.units import MIB
from repro.workload import build_retail_suite

BUDGET = 1 * MIB


def test_a1_assessor_tradeoff(benchmark):
    suite = build_retail_suite(
        orders_rows=30_000, inventory_rows=8_000, chunk_size=8_192
    )
    db = suite.database
    forecast = make_forecast(suite)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, BUDGET)])

    learned = LearnedCostModel(db)
    run_startup_calibration(db, learned, seed=3)
    # without design exploration the learned model has never seen an index
    # active and prices every index candidate at zero benefit
    run_design_exploration(db, learned, seed=3)

    reference = WhatIfOptimizer(db)  # measured ground truth for evaluation
    samples = dict(forecast.sample_queries)
    baseline = reference.scenario_cost_ms(forecast.expected, samples)

    assessors = {
        "measured-what-if": CostModelAssessor(WhatIfOptimizer(db)),
        "physical-model": CostModelAssessor(
            WhatIfOptimizer(db, PhysicalCostModel(db))
        ),
        "learned-model": CostModelAssessor(WhatIfOptimizer(db, learned)),
        "logical-model": CostModelAssessor(
            WhatIfOptimizer(db, LogicalCostModel(db))
        ),
    }

    rows = []
    realized = {}
    for name, assessor in assessors.items():
        tuner = Tuner(IndexSelectionFeature(), reference, assessor=assessor)
        started = time.perf_counter()
        result = tuner.propose(forecast, constraints)
        wall = time.perf_counter() - started
        with reference.hypothetical(result.delta):
            after = reference.scenario_cost_ms(forecast.expected, samples)
        realized[name] = after
        rows.append(
            [
                name,
                len(result.chosen),
                f"{wall:.3f}",
                round(result.predicted_benefit_ms, 3),
                round(baseline - after, 3),
                f"{100 * (1 - after / baseline):.1f}%",
            ]
        )
    save_table(
        "a1_assessor_tradeoff",
        [
            "assessor",
            "chosen",
            "assess_seconds",
            "predicted_benefit_ms",
            "realized_benefit_ms",
            "improvement",
        ],
        rows,
        f"A1: assessor accuracy/runtime trade-off (baseline {baseline:.3f} ms)",
    )

    # measured assessment is the quality ceiling; the physical model's
    # selection must land within 15% of it; logical is blind to physical
    # design and must not beat the configuration-aware models
    assert realized["measured-what-if"] <= min(realized.values()) * 1.05
    assert realized["physical-model"] <= realized["measured-what-if"] * 1.15
    assert realized["logical-model"] >= realized["physical-model"] * 0.99

    benchmark(
        lambda: Tuner(
            IndexSelectionFeature(),
            reference,
            assessor=assessors["physical-model"],
        ).propose(forecast, constraints)
    )

"""E3 — Section II-D.c: the selector classes on index selection.

Greedy, optimal (MILP), genetic, and robust selectors pick from the same
assessed candidate set under a memory-budget sweep. Reported per selector
and budget: achieved expected benefit, budget utilisation, and selection
runtime. Expected shape: optimal ≥ genetic ≈ greedy, greedy fastest,
optimal slowest; robust trades expected benefit for worst-case benefit.
"""

from __future__ import annotations

import time

from conftest import make_forecast, save_table

from repro.configuration import INDEX_MEMORY
from repro.cost import WhatIfOptimizer
from repro.tuning import (
    CostModelAssessor,
    GeneticSelector,
    GreedySelector,
    IndexSelectionFeature,
    OptimalSelector,
    RobustSelector,
)
from repro.util.units import KIB, MIB
from repro.workload import build_retail_suite

BUDGETS = (256 * KIB, 1 * MIB, 4 * MIB)


def _assessments():
    suite = build_retail_suite(
        orders_rows=30_000, inventory_rows=8_000, chunk_size=8_192
    )
    db = suite.database
    forecast = make_forecast(suite)
    feature = IndexSelectionFeature(max_width=2)
    candidates = feature.make_enumerator().candidates(db, forecast)
    assessor = CostModelAssessor(WhatIfOptimizer(db))
    reset = feature.reset_delta(db, forecast)
    assessments = assessor.assess(candidates, db, forecast, reset)
    probabilities = {s.name: s.probability for s in forecast.scenarios}
    return assessments, probabilities


def _selectors():
    return {
        "greedy": GreedySelector(),
        "optimal": OptimalSelector(),
        "genetic": GeneticSelector(seed=3, generations=50),
        "robust-worst-case": RobustSelector(OptimalSelector(), "worst_case"),
        "robust-mean-variance": RobustSelector(
            OptimalSelector(), "mean_variance", risk_aversion=1.0
        ),
    }


def test_e3_selector_comparison(benchmark):
    assessments, probabilities = _assessments()
    rows = []
    benefits: dict[tuple[str, int], float] = {}
    for budget in BUDGETS:
        for name, selector in _selectors().items():
            started = time.perf_counter()
            chosen = selector.select(
                assessments,
                {INDEX_MEMORY: float(budget)},
                selector.desirability(probabilities),
            )
            runtime = time.perf_counter() - started
            expected = sum(a.expected(probabilities) for a in chosen)
            worst = sum(a.worst_case() for a in chosen)
            used = sum(a.permanent_cost(INDEX_MEMORY) for a in chosen)
            benefits[(name, budget)] = expected
            rows.append(
                [
                    f"{budget // KIB} KiB",
                    name,
                    len(chosen),
                    round(expected, 3),
                    round(worst, 3),
                    f"{100 * used / budget:.0f}%",
                    f"{runtime * 1000:.1f}",
                ]
            )
    save_table(
        "e3_selectors",
        [
            "budget",
            "selector",
            "chosen",
            "expected_benefit_ms",
            "worst_case_benefit_ms",
            "budget_used",
            "select_ms",
        ],
        rows,
        "E3: selector classes on index selection (budget sweep)",
    )

    for budget in BUDGETS:
        optimal = benefits[("optimal", budget)]
        assert optimal >= benefits[("greedy", budget)] - 1e-9
        assert optimal >= benefits[("genetic", budget)] - 1e-9
        # more budget never hurts the optimal selector
    assert benefits[("optimal", BUDGETS[-1])] >= benefits[("optimal", BUDGETS[0])]

    optimal = OptimalSelector()
    benchmark(
        lambda: optimal.select(
            assessments,
            {INDEX_MEMORY: float(1 * MIB)},
            optimal.desirability(probabilities),
        )
    )

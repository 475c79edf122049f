"""E9 — Section III-A: measured dependence ratios across the four features.

Runs the full dependence-measurement campaign (W_∅, every W_A, every
W_{A,B}) on the retail workload and reports the impact ratios, the d_{A,B}
matrix, the impact-per-cost ranking, and the resulting LP order. Expected
shape: compression and index selection carry the largest impacts; the
d-matrix favours tuning compression before index selection (dictionary
codes shrink indexes) and compression before placement (smaller chunks
relieve DRAM pressure).
"""

from __future__ import annotations

from conftest import make_forecast, save_table

from repro.configuration import (
    ConstraintSet,
    DRAM_BYTES,
    INDEX_MEMORY,
    ResourceBudget,
)
from repro.cost import WhatIfOptimizer
from repro.ordering import (
    DependenceAnalyzer,
    LPOrderOptimizer,
    impact_per_cost_ranking,
)
from repro.tuning import (
    CompressionFeature,
    DataPlacementFeature,
    IndexSelectionFeature,
    Tuner,
)
from repro.util.units import MIB
from repro.workload import build_retail_suite


def test_e9_dependence_matrix(benchmark):
    suite = build_retail_suite(
        orders_rows=25_000, inventory_rows=6_000, chunk_size=8_192
    )
    db = suite.database
    forecast = make_forecast(suite)
    data_total = sum(
        c.memory_bytes() for t in db.catalog.tables() for c in t.chunks()
    )
    constraints = ConstraintSet(
        [
            ResourceBudget(INDEX_MEMORY, 1 * MIB),
            ResourceBudget(DRAM_BYTES, int(0.85 * data_total)),
        ]
    )
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(IndexSelectionFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
        Tuner(DataPlacementFeature(), optimizer),
    ]
    analyzer = DependenceAnalyzer(tuners, constraints)

    matrix = benchmark.pedantic(
        lambda: analyzer.measure(forecast), rounds=1, iterations=1
    )

    impact_rows = [
        [
            feature,
            round(matrix.w_single[feature], 3),
            round(matrix.impact(feature), 3),
            round(matrix.tuning_cost_ms[feature], 3),
        ]
        for feature in matrix.features
    ]
    save_table(
        "e9_impacts",
        ["feature", "W_A_ms", "impact W0/W_A", "tuning_cost_ms"],
        impact_rows,
        f"E9a: single-feature impacts (W_∅ = {matrix.w_empty:.3f} ms)",
    )

    d_rows = []
    for a in matrix.features:
        for b in matrix.features:
            if a >= b:
                continue
            d_rows.append(
                [
                    a,
                    b,
                    round(matrix.w_pair[(a, b)], 3),
                    round(matrix.w_pair[(b, a)], 3),
                    round(matrix.d(a, b), 4),
                    a if matrix.d(a, b) > 1 else (b if matrix.d(a, b) < 1 else "-"),
                ]
            )
    save_table(
        "e9_dependence",
        ["A", "B", "W_AB_ms", "W_BA_ms", "d_AB", "tune_first"],
        d_rows,
        "E9b: pairwise dependence ratios d_{A,B} = W_BA / W_AB",
    )

    ranking = impact_per_cost_ranking(matrix)
    solution = LPOrderOptimizer().optimize(matrix)
    save_table(
        "e9_ranking",
        ["rank", "feature", "impact_per_cost"],
        [[i + 1, f, round(s, 4)] for i, (f, s) in enumerate(ranking)],
        f"E9c: impact-per-cost ranking; LP order: {' -> '.join(solution.order)}",
    )

    # shape assertions: performance features improve the workload; the
    # placement feature *satisfies the DRAM budget* and may well cost
    # performance (impact < 1) — which is exactly why the order matters
    assert matrix.w_single["compression"] <= matrix.w_empty * 1.01
    assert matrix.w_single["index_selection"] <= matrix.w_empty * 1.01
    assert matrix.impact("compression") > 1.05
    assert matrix.impact("index_selection") > 1.05
    # the encoding→index interaction: compression first is never worse
    assert matrix.d("compression", "index_selection") >= 0.95
    # compression relieves memory pressure, so it should precede placement
    assert matrix.d("compression", "data_placement") >= 1.0

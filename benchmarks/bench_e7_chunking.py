"""E7 — Section II-B: per-chunk vs per-table physical design decisions.

The ``recent_orders``/``customer_recent`` families only touch the newest
chunks (order dates are ingest-ordered). A per-chunk index tuner can "create
indexes only on the frequently accessed and most beneficial chunks to save
memory"; a per-table tuner must pay for every chunk. Reported per mode:
workload cost achieved and index memory spent, under a generous and a tight
budget. Expected shape: equal workload cost at a fraction of the memory,
and under the tight budget per-chunk wins outright because the table-wide
index no longer fits.
"""

from __future__ import annotations

from conftest import make_forecast, save_table

from repro.configuration import ConstraintSet, INDEX_MEMORY, ResourceBudget
from repro.cost import WhatIfOptimizer
from repro.tuning import IndexSelectionFeature, Tuner
from repro.util.units import KIB, MIB
from repro.workload import build_retail_suite

HOT_FAMILIES = ["recent_orders", "customer_recent", "status_count"]
BUDGETS = {"generous": 4 * MIB, "tight": 192 * KIB}


def test_e7_chunk_granularity(benchmark):
    suite = build_retail_suite(
        orders_rows=40_000, inventory_rows=4_000, chunk_size=8_192
    )
    db = suite.database
    forecast = make_forecast(suite, families=HOT_FAMILIES)
    optimizer = WhatIfOptimizer(db)
    samples = dict(forecast.sample_queries)
    baseline = optimizer.scenario_cost_ms(forecast.expected, samples)

    rows = []
    results: dict[tuple[str, str], tuple[float, float]] = {}
    for budget_name, budget in BUDGETS.items():
        constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, budget)])
        for mode, per_chunk in (("per-table", False), ("per-chunk", True)):
            tuner = Tuner(
                IndexSelectionFeature(per_chunk=per_chunk), WhatIfOptimizer(db)
            )
            result = tuner.propose(forecast, constraints)
            with optimizer.hypothetical(result.delta):
                cost = optimizer.scenario_cost_ms(forecast.expected, samples)
                index_bytes = db.index_bytes()
            results[(budget_name, mode)] = (cost, index_bytes)
            rows.append(
                [
                    budget_name,
                    mode,
                    len(result.chosen),
                    round(index_bytes / KIB, 1),
                    round(cost, 3),
                    f"{100 * (1 - cost / baseline):.1f}%",
                ]
            )
    save_table(
        "e7_chunking",
        ["budget", "mode", "chosen", "index_kib", "workload_ms", "improvement"],
        rows,
        f"E7: chunk-level vs table-level index decisions "
        f"(baseline {baseline:.3f} ms)",
    )

    generous_table = results[("generous", "per-table")]
    generous_chunk = results[("generous", "per-chunk")]
    tight_table = results[("tight", "per-table")]
    tight_chunk = results[("tight", "per-chunk")]

    # same ballpark of workload cost with clearly less memory
    assert generous_chunk[0] <= generous_table[0] * 1.15
    assert generous_chunk[1] < 0.7 * generous_table[1]
    # under the tight budget the chunk-level tuner wins on cost
    assert tight_chunk[0] <= tight_table[0]

    tuner = Tuner(IndexSelectionFeature(per_chunk=True), WhatIfOptimizer(db))
    constraints = ConstraintSet(
        [ResourceBudget(INDEX_MEMORY, BUDGETS["tight"])]
    )
    benchmark.pedantic(
        lambda: tuner.propose(forecast, constraints), rounds=1, iterations=1
    )

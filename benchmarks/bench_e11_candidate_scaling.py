"""E11 — §II-D.a: candidate-set size drives tuning runtime.

"The size of the candidate set is typically a significant contributor to
the execution time of optimization algorithms. Hence, providing a variety
of enumeration algorithms is advisable … The framework allows to switch
between different enumerators or fall back to restrictive enumerators when
necessary."

The same index-selection run is driven with the full per-chunk candidate
set and with restrictive caps; reported per cap: candidates assessed, the
what-if costs the assessor asked for (each tuner prices through an
optimizer of its own, so the count is that cap's alone), and the realized
benefit of the resulting selection. Expected shape: the work grows with
the candidate count while the benefit saturates early — the restrictive
enumerator buys most of the quality at a fraction of the work. The
``propose_seconds`` column is one host timing per cap, shown for
orientation and asserted on by nothing.
"""

from __future__ import annotations

import time

from conftest import make_forecast, save_table

from repro.configuration import ConstraintSet, INDEX_MEMORY, ResourceBudget
from repro.cost import WhatIfOptimizer
from repro.tuning import (
    IndexEnumerator,
    IndexSelectionFeature,
    RestrictiveEnumerator,
    Tuner,
)
from repro.util.units import MIB
from repro.workload import build_retail_suite

CAPS = (2, 4, 8, None)  # None = unrestricted


def test_e11_candidate_scaling(benchmark):
    suite = build_retail_suite(
        orders_rows=30_000, inventory_rows=8_000, chunk_size=8_192
    )
    db = suite.database
    forecast = make_forecast(suite)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 2 * MIB)])
    reference = WhatIfOptimizer(db)
    samples = dict(forecast.sample_queries)
    baseline = reference.scenario_cost_ms(forecast.expected, samples)

    rows = []
    results: dict[object, tuple[int, int, float]] = {}
    for cap in CAPS:
        inner = IndexEnumerator(max_width=2)
        enumerator = (
            inner if cap is None else RestrictiveEnumerator(inner, cap)
        )
        optimizer = WhatIfOptimizer(db)
        tuner = Tuner(
            IndexSelectionFeature(),
            optimizer,
            enumerator=enumerator,
        )
        started = time.perf_counter()
        result = tuner.propose(forecast, constraints)
        wall = time.perf_counter() - started
        stats = optimizer.cache_stats
        priced = stats.hits + stats.misses
        with reference.hypothetical(result.delta):
            after = reference.scenario_cost_ms(forecast.expected, samples)
        results[cap] = (result.candidate_count, priced, after)
        rows.append(
            [
                "unrestricted" if cap is None else str(cap),
                result.candidate_count,
                priced,
                f"{wall:.3f}",
                round(baseline - after, 3),
                f"{100 * (1 - after / baseline):.1f}%",
            ]
        )
    save_table(
        "e11_candidate_scaling",
        [
            "candidate_cap",
            "candidates",
            "whatif_costs",
            "propose_seconds",
            "realized_benefit_ms",
            "improvement",
        ],
        rows,
        f"E11: tuning work vs candidate-set size "
        f"(baseline {baseline:.3f} ms)",
    )

    full_count, full_priced, full_after = results[None]
    cap8_count, cap8_priced, cap8_after = results[8]
    assert cap8_count < full_count
    assert cap8_priced < full_priced
    # the restrictive enumerator keeps most of the achievable benefit
    full_benefit = baseline - full_after
    cap8_benefit = baseline - cap8_after
    assert cap8_benefit >= 0.5 * full_benefit

    benchmark.pedantic(
        lambda: Tuner(
            IndexSelectionFeature(),
            WhatIfOptimizer(db),
            enumerator=RestrictiveEnumerator(IndexEnumerator(max_width=2), 8),
        ).propose(forecast, constraints),
        rounds=1,
        iterations=1,
    )

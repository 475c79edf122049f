"""E12 — footprint-keyed what-if cost caching on dependence measurement.

The dependence campaign of Section III-A is the framework's most
pricing-intensive operation: W_∅, every W_A, and every W_{A,B} each price
the full expected workload, and the |S|² sandboxed tuning runs re-price it
per candidate. The organizer repeats the campaign every
``order_refresh_every`` runs, and as long as the configuration is stable
each refresh revisits the same states — every rollback is exact, and the
cache keys on what a query reads, so a re-applied delta finds the costs of
its first visit — which turns the repeated pricings into dict hits, both
within one campaign (re-proposals against the reset baseline)
and across refreshes.

The experiment runs an identical measure-plus-refreshes cycle on two
identical suites — once with the cache disabled, once enabled — and checks
that caching (a) makes the cycle at least twice as fast and (b) is
semantically invisible: every measured quantity of every dependence matrix
is identical, across refreshes and across variants.
"""

from __future__ import annotations

import time

from conftest import make_forecast, save_table

from repro.configuration import (
    ConstraintSet,
    DRAM_BYTES,
    INDEX_MEMORY,
    ResourceBudget,
)
from repro.cost import WhatIfOptimizer
from repro.ordering import DependenceAnalyzer
from repro.tuning import (
    CompressionFeature,
    DataPlacementFeature,
    IndexSelectionFeature,
    Tuner,
)
from repro.util.units import MIB
from repro.workload import build_retail_suite

#: one initial measurement plus three periodic order refreshes
REFRESHES = 4


def _campaign(cache_size: int):
    """A full measure-plus-refreshes cycle on a fresh identical suite."""
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
    # one optimizer shared by the analyzer and all feature assessors, so
    # the whole campaign prices through a single cost cache
    optimizer = WhatIfOptimizer(db, cache_size=cache_size)
    tuners = [
        Tuner(IndexSelectionFeature(), db, optimizer=optimizer),
        Tuner(CompressionFeature(), db, optimizer=optimizer),
        Tuner(DataPlacementFeature(), db, optimizer=optimizer),
    ]
    analyzer = DependenceAnalyzer(db, tuners, constraints, optimizer=optimizer)
    started = time.perf_counter()
    matrices = [analyzer.measure(forecast) for _ in range(REFRESHES)]
    elapsed = time.perf_counter() - started
    return matrices, elapsed, optimizer.cache_stats


def _assert_identical(reference, matrix):
    assert matrix.features == reference.features
    assert matrix.w_empty == reference.w_empty
    assert matrix.w_single == reference.w_single
    assert matrix.w_pair == reference.w_pair
    assert matrix.tuning_cost_ms == reference.tuning_cost_ms


def test_e12_whatif_cache_speedup(benchmark):
    cold_matrices, cold_s, cold_stats = _campaign(cache_size=0)
    warm_matrices, warm_s, warm_stats = benchmark.pedantic(
        lambda: _campaign(cache_size=4096), rounds=1, iterations=1
    )
    speedup = cold_s / warm_s

    save_table(
        "e12_whatif_cache",
        ["variant", "seconds", "hits", "misses", "hit_rate", "speedup"],
        [
            ["uncached", round(cold_s, 3), cold_stats.hits,
             cold_stats.misses, "-", 1.0],
            ["cached", round(warm_s, 3), warm_stats.hits,
             warm_stats.misses, round(warm_stats.hit_rate, 3),
             round(speedup, 2)],
        ],
        f"E12: dependence measurement + {REFRESHES - 1} refreshes with "
        "the footprint-keyed what-if cache",
    )

    # the cache must actually carry the campaign
    assert warm_stats.hits > warm_stats.misses
    assert speedup >= 2.0, f"cache speedup {speedup:.2f}x below 2x"

    # and be semantically invisible: identical measured quantities across
    # refreshes and across the cached/uncached variants
    reference = cold_matrices[0]
    for matrix in cold_matrices[1:] + warm_matrices:
        _assert_identical(reference, matrix)

"""F1 — Figure 1: the full component pipeline end to end.

Reproduces the architecture diagram as behaviour: plan cache → workload
predictor → tuners (enumerate/assess/select/execute) → organizer →
configuration instance store, in a closed loop over a live workload.
Reports per-bin mean query time with the tuning points marked, showing the
self-management loop paying off.
"""

from __future__ import annotations

from conftest import save_table

from repro import (
    ClosedLoopSimulation,
    ConstraintSet,
    Driver,
    DriverConfig,
    OrganizerConfig,
    ResourceBudget,
)
from repro.configuration import INDEX_MEMORY
from repro.core import PeriodicTrigger
from repro.tuning import CompressionFeature, IndexSelectionFeature
from repro.util.units import MIB
from repro.workload import build_retail_suite, generate_trace

N_BINS = 12


def _build():
    suite = build_retail_suite(
        orders_rows=30_000, inventory_rows=8_000, chunk_size=8_192
    )
    trace = generate_trace(
        suite.families, suite.rates, N_BINS, bin_duration_ms=60_000, seed=17
    )
    driver = Driver(
        [IndexSelectionFeature(), CompressionFeature()],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 2 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=5 * 60_000)],
        config=DriverConfig(
            organizer=OrganizerConfig(
                horizon_bins=3, min_history_bins=3, cooldown_ms=4 * 60_000
            )
        ),
    )
    suite.database.plugin_host.attach(driver)
    return suite, trace, driver


def test_f1_pipeline(benchmark):
    suite, trace, driver = _build()
    sim = ClosedLoopSimulation(suite.database, trace, seed=2)

    records = benchmark.pedantic(
        lambda: sim.run(), rounds=1, iterations=1
    )

    rows = [
        [
            r.index,
            r.queries_executed,
            round(r.mean_query_ms, 5),
            round(r.reconfiguration_ms, 2),
            "yes" if r.reconfigured else "",
        ]
        for r in records
    ]
    save_table(
        "f1_pipeline",
        ["bin", "queries", "mean_query_ms", "reconfig_ms", "tuned"],
        rows,
        "F1: closed-loop self-management (Figure 1 pipeline)",
    )
    early = sum(r.mean_query_ms for r in records[:3]) / 3
    late = sum(r.mean_query_ms for r in records[-3:]) / 3
    assert any(r.reconfigured for r in records)
    assert late < early
    assert len(driver.context.store) >= 1

"""E8 — Section I: self-management observation overhead stays under 1%.

Industry architects demanded "a maximum of 1% of additional runtime
introduced by such capabilities". The framework's steady-state footprint is
the per-bin plan-cache snapshot diff plus the KPI sample (tuning itself is
deliberate, budgeted work and excluded here, as in the paper's requirement).
Asserted here: the simulated-time overhead of replaying the identical
workload with an observing driver attached, which is zero by construction
since observation reads counters only. The host seconds in the table are
context, not a claim — one box, min of three: the host share of the
observation tick is measured repeatedly, with spread, by the perf ledger
(``core.tick_share`` on ``serve_templates`` / ``serve_adhoc``, bench/run.py).
"""

from __future__ import annotations

import time

from conftest import save_table

from repro import ClosedLoopSimulation, Driver, DriverConfig, OrganizerConfig
from repro.core import NeverTrigger
from repro.tuning import IndexSelectionFeature
from repro.workload import build_retail_suite, generate_trace

N_BINS = 20


def _run(attach_driver: bool) -> tuple[float, float, float]:
    suite = build_retail_suite(
        orders_rows=20_000, inventory_rows=5_000, chunk_size=8_192
    )
    db = suite.database
    trace = generate_trace(
        suite.families, suite.rates, N_BINS, bin_duration_ms=60_000, seed=33
    )
    if attach_driver:
        driver = Driver(
            [IndexSelectionFeature()],
            triggers=[NeverTrigger()],
            config=DriverConfig(
                organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3)
            ),
        )
        db.plugin_host.attach(driver)
    sim = ClosedLoopSimulation(db, trace, seed=9)
    started = time.perf_counter()
    records = sim.run()
    host_seconds = time.perf_counter() - started
    workload_ms = sum(r.workload_ms for r in records)
    reconf_ms = sum(r.reconfiguration_ms for r in records)
    return host_seconds, workload_ms, reconf_ms


def test_e8_observation_overhead(benchmark):
    bare_runs = [_run(False) for _ in range(3)]
    observed_runs = [_run(True) for _ in range(3)]
    bare_host = min(r[0] for r in bare_runs)
    observed_host = min(r[0] for r in observed_runs)
    bare_workload = bare_runs[0][1]
    observed_workload = observed_runs[0][1]

    simulated_overhead = observed_workload / bare_workload - 1.0
    rows = [
        ["bare", f"{bare_host:.3f}", round(bare_workload, 2), 0.0],
        [
            "driver attached (observe-only)",
            f"{observed_host:.3f}",
            round(observed_workload, 2),
            round(observed_runs[0][2], 2),
        ],
        ["overhead", "-", f"{100 * simulated_overhead:+.2f}%", "-"],
    ]
    save_table(
        "e8_overhead",
        ["configuration", "host_seconds", "simulated_workload_ms", "reconfig_ms"],
        rows,
        f"E8: observation overhead over {N_BINS} bins",
    )

    # simulated query time is byte-identical: observation reads counters only
    assert simulated_overhead == 0.0

    db_suite = build_retail_suite(
        orders_rows=20_000, inventory_rows=5_000, chunk_size=8_192
    )
    db = db_suite.database
    driver = Driver(
        [IndexSelectionFeature()],
        triggers=[NeverTrigger()],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3)
        ),
    )
    db.plugin_host.attach(driver)
    for q in db_suite.mix.sample_queries(50, seed=1):
        db.execute(q)
    # benchmark kernel: one observation tick (snapshot diff + KPI sample)
    benchmark(lambda: driver.on_tick(db.clock.now_ms))

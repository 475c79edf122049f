"""The flagship demo: a fully autonomous loop over a drifting retail workload.

A seasonal retail workload runs for 36 simulated minutes. Halfway through,
the mix shifts (point lookups quadruple, recent-order analytics collapse).
The attached driver observes via plan-cache snapshots, forecasts, decides
when tuning pays off (forecast-drift + periodic triggers), plans the
multi-feature tuning order with the Section III LP, applies changes, and
records every decision in the event log and the configuration store.

Run:  python examples/self_driving_retail.py
"""

from __future__ import annotations

from repro import (
    ClosedLoopSimulation,
    ConstraintSet,
    Driver,
    DriverConfig,
    OrganizerConfig,
    ResourceBudget,
)
from repro.configuration import INDEX_MEMORY
from repro.core import EventKind, ForecastDriftTrigger, PeriodicTrigger
from repro.tuning import (
    CompressionFeature,
    DataPlacementFeature,
    IndexSelectionFeature,
)
from repro.util.units import MIB
from repro.workload import apply_shift, build_retail_suite, generate_trace

N_BINS = 36
SHIFT_AT = 18


def main() -> None:
    suite = build_retail_suite(orders_rows=60_000, inventory_rows=15_000)
    db = suite.database

    trace = generate_trace(
        suite.families, suite.rates, N_BINS, bin_duration_ms=60_000, seed=11
    )
    trace = apply_shift(
        trace, SHIFT_AT, {"point_customer": 4.0, "recent_orders": 0.2}
    )

    driver = Driver(
        [IndexSelectionFeature(), CompressionFeature(), DataPlacementFeature()],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 4 * MIB)]),
        triggers=[
            PeriodicTrigger(every_ms=10 * 60_000),
            ForecastDriftTrigger(relative_threshold=0.25),
        ],
        config=DriverConfig(
            organizer=OrganizerConfig(
                horizon_bins=4,
                min_history_bins=4,
                cooldown_ms=5 * 60_000,
            )
        ),
    )
    db.plugin_host.attach(driver)

    print(f"replaying {N_BINS} bins (workload shift at bin {SHIFT_AT})\n")
    simulation = ClosedLoopSimulation(db, trace, seed=3)
    print("bin  queries  mean ms   tuned")
    print("---  -------  --------  -----")
    for record in simulation.run():
        marker = "  *" if record.reconfigured else ""
        print(
            f"{record.index:3d}  {record.queries_executed:7d}  "
            f"{record.mean_query_ms:8.4f}{marker}"
        )

    print("\n--- self-management log ---")
    for event in driver.context.events.events():
        if event.kind in (
            EventKind.ORDER_PLANNED,
            EventKind.TUNING_FINISHED,
        ):
            print(f"[{event.at_ms / 60_000:5.1f} min] {event.message}")

    print("\n--- feedback loop (configuration store) ---")
    for record in driver.context.store.history():  # one record per pass
        print(
            f"trigger={record.trigger:15s} "
            f"predicted={record.predicted_benefit_ms:7.2f} ms  "
            f"measured={record.measured_benefit_ms:7.2f} ms  "
            f"reconfig={record.reconfiguration_cost_ms:6.2f} ms"
        )
        for outcome in record.outcomes:
            print(
                f"    {outcome.feature:15s} "
                f"predicted={outcome.predicted_benefit_ms:7.2f} ms  "
                f"measured={outcome.measured_benefit_ms:7.2f} ms  "
                f"reconfig={outcome.work_ms:6.2f} ms  "
                f"({len(outcome.action_summaries)} actions)"
            )

    print(f"\nfinal index memory: {db.index_bytes() / MIB:.2f} MiB")
    print(f"total reconfigurations: {db.counters.reconfigurations}")


if __name__ == "__main__":
    main()

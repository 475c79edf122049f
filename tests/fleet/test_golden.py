"""Golden tests: a one-tenant fleet is the legacy single-tenant driver.

The multi-tenant refactor must not change single-tenant behavior at all:
the same seed must produce bit-identical bin records, the same event
stream, and the same final physical configuration whether the loop is
driven by the legacy ``Driver`` + ``ClosedLoopSimulation`` pair or by a
``FleetDriver`` with one tenant.
"""

import pytest

from repro import (
    ClosedLoopSimulation,
    ConstraintSet,
    Driver,
    DriverConfig,
    OrganizerConfig,
    ResourceBudget,
)
from repro.configuration import INDEX_MEMORY
from repro.configuration.config import ConfigurationInstance
from repro.core import ForecastDriftTrigger, PeriodicTrigger
from repro.fleet import build_fleet
from repro.tuning import standard_features
from repro.util.units import MIB
from repro.workload import build_retail_suite, generate_trace

BINS = 8
ROWS = 3_000


def _run_legacy(seed):
    """The pre-fleet loop, with exactly build_fleet's default parameters."""
    suite = build_retail_suite(
        orders_rows=ROWS, inventory_rows=ROWS // 4, seed=seed
    )
    db = suite.database
    trace = generate_trace(
        suite.families, suite.rates, BINS, bin_duration_ms=60_000.0, seed=seed
    )
    driver = Driver(
        standard_features(),
        constraints=ConstraintSet(
            [ResourceBudget(INDEX_MEMORY, 64.0 * MIB)]
        ),
        triggers=[
            PeriodicTrigger(every_ms=6 * 60_000),
            ForecastDriftTrigger(relative_threshold=0.25),
        ],
        config=DriverConfig(
            organizer=OrganizerConfig(
                horizon_bins=4, min_history_bins=4, cooldown_ms=3 * 60_000
            )
        ),
    )
    db.plugin_host.attach(driver)
    records = ClosedLoopSimulation(db, trace, seed=seed).run()
    return db, driver, records


def _normalized_events(log):
    """Events with host-wall-clock measurements stripped from data.

    Solver/selector timings are real host seconds and differ between
    any two runs; everything else must match exactly.
    """
    out = []
    for event in log.events():
        data = {
            k: v for k, v in event.data.items() if not k.endswith("seconds")
        }
        out.append((event.at_ms, event.kind, event.message, data))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_tenant_fleet_is_bit_identical_to_legacy_driver(seed):
    fleet = build_fleet(1, seed=seed, bins=BINS, rows=ROWS)
    fleet.run()
    ctx = fleet.tenants[0]
    legacy_db, legacy_driver, legacy_records = _run_legacy(seed)

    # bin-for-bin identical measurements (queries, costs, clock)
    assert list(ctx.records) == legacy_records
    # event-for-event identical self-management log (Event.tenant is
    # excluded from equality; host-time measurements normalized away)
    assert _normalized_events(ctx.events) == _normalized_events(
        legacy_driver.context.events
    )
    # and the loop converged to the same physical configuration
    assert ConfigurationInstance.capture(
        ctx.database
    ) == ConfigurationInstance.capture(legacy_db)


def test_one_tenant_fleet_actually_tuned():
    # guard the golden tests against vacuous equality: the shared
    # parameters must actually drive a tuning pass within BINS bins
    fleet = build_fleet(1, seed=1, bins=BINS, rows=ROWS)
    report = fleet.run()
    assert report.total_full_passes >= 1
    assert report.summaries[0].reconfigurations > 0


def test_one_tenant_fleet_events_carry_the_tenant_label():
    fleet = build_fleet(1, seed=1, bins=BINS, rows=ROWS)
    fleet.run()
    events = fleet.tenants[0].events.events()
    assert events
    assert all(e.tenant == "t0" for e in events)

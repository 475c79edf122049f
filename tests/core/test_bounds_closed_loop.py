"""A bound is stated one way: latency as an SLA, memory as a budget.

The closed loop of tests/conftest.py (three standard features, twelve
bins, a periodic trigger every sixth bin) with ``SlaViolationTrigger``
first: the SLA is judged from the runtime KPI samples the loop takes,
and the index-memory bound is a ``ResourceBudget`` every selection
respects.
"""

import pytest

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
    SlaConstraint,
)
from repro.core.driver import Driver, DriverConfig
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.triggers import PeriodicTrigger, SlaViolationTrigger
from repro.kpi.metrics import INDEX_MEMORY_BYTES, P99_QUERY_MS
from repro.tuning import standard_features
from repro.util.units import MIB
from tests.conftest import run_closed_loop


def _closed_loop(seed, sla):
    """Twelve bins of a seeded trace under ``sla`` and a 4 MiB index
    budget."""
    driver = Driver(
        standard_features()[:3],
        constraints=ConstraintSet(
            [ResourceBudget(INDEX_MEMORY, 4 * MIB)], slas=[sla]
        ),
        triggers=[
            SlaViolationTrigger(),
            PeriodicTrigger(every_ms=6 * 60_000.0),
        ],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=4, min_history_bins=4)
        ),
    )
    run_closed_loop(driver, 12, trace_seed=seed, sim_seed=seed)
    return driver.context


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_breached_sla_fires_and_its_pass_commits(seed):
    # no query runs in a nanosecond: the p99 SLA is breached every bin
    sla = SlaConstraint(P99_QUERY_MS, 1e-6)
    ctx = _closed_loop(seed, sla)
    fired = [
        e
        for e in ctx.events.events(EventKind.TRIGGER)
        if e.message.startswith(SlaViolationTrigger.name)
        and e.data["should_tune"]
    ]
    assert fired
    committed = [
        r for r in ctx.store.history() if r.trigger == SlaViolationTrigger.name
    ]
    assert committed
    assert ctx.monitor.breached_slas((sla,)) == [sla]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_run_ends_with_the_sla_and_the_budget_met(seed):
    sla = SlaConstraint(P99_QUERY_MS, 50.0)
    ctx = _closed_loop(seed, sla)
    latest = ctx.monitor.latest
    assert latest.get(P99_QUERY_MS) <= 50.0
    assert ctx.monitor.breached_slas((sla,)) == []
    assert latest.get(INDEX_MEMORY_BYTES) <= 4 * MIB
    assert ctx.database.index_bytes() <= 4 * MIB
    # the periodic trigger still tuned: the budget was met by a selection,
    # not by a loop that never ran
    assert ctx.store.history()

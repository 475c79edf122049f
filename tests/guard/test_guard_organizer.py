"""Organizer-level guarded commits: probation, watchdog rollback, quarantine."""

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.core.driver import Driver, DriverConfig
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.triggers import (
    FORECAST_MISS_TRIGGER,
    NeverTrigger,
    PeriodicTrigger,
)
from repro.cost import WhatIfOptimizer
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.guard import CommitResolution, guard
from repro.kpi.metrics import (
    GUARD_COMMITS,
    GUARD_ESCALATIONS,
    GUARD_PASSED,
    GUARD_REGRESSIONS,
    GUARD_ROLLBACKS,
    MEAN_QUERY_MS,
)
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.tuning import standard_features
from repro.tuning.features import (
    BufferPoolFeature,
    DataPlacementFeature,
    IndexSelectionFeature,
)
from repro.tuning.tuner import Tuner
from repro.workload import swap_dominance
from tests.conftest import make_organizer, run_closed_loop
from tests.guard.miscalibrated import MiscalibratedAssessor


@pytest.fixture
def regression_watchdog_only(monkeypatch):
    """A forecast-miss threshold of 1.0 isolates the regression watchdog:
    with only ~25 sampled queries per bin the template-mix noise sits far
    above the trace-level calibration of the product threshold (the
    forecast-miss path has its own unit tests and the closed-loop cases
    at the end, which run whole traces under the product's constants)."""
    monkeypatch.setattr("repro.guard.forecast_miss.TV_THRESHOLD", 1.0)


def _organizer(retail_suite, tuners):
    db = retail_suite.database
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    monitor = RuntimeKPIMonitor(db)
    organizer = make_organizer(
        predictor,
        tuners,
        monitor=monitor,
        config=OrganizerConfig(horizon_bins=3, min_history_bins=3),
    )
    return db, organizer, predictor, monitor


def _run_bin(retail_suite, db, predictor, monitor, seed, queries=25):
    for q in retail_suite.mix.sample_queries(queries, seed=seed):
        db.execute(q)
    db.clock.advance(1_000.0)
    predictor.observe()
    return monitor.sample().get(MEAN_QUERY_MS)


def _observed_by_commit(events):
    """commit_id -> the ``observed_ms`` of the GUARD event that closed
    its probation (passed, or regression confirmed)."""
    return {
        e.data["commit_id"]: e.data["observed_ms"]
        for e in events.events(EventKind.GUARD)
        if e.data.get("state") in ("passed", "regression_confirmed")
    }


@pytest.mark.usefixtures("regression_watchdog_only")
def test_committed_pass_enters_and_passes_probation(retail_suite):
    db, organizer, predictor, monitor = _organizer(
        retail_suite,
        [Tuner(IndexSelectionFeature(), WhatIfOptimizer(retail_suite.database))],
    )
    for i in range(4):
        _run_bin(retail_suite, db, predictor, monitor, seed=100 + i)
    report = organizer.run_tuning()
    assert report is not None and db.index_bytes() > 0

    commit = organizer.guard.active_commit
    assert commit is not None
    assert commit.features == ("index_selection",)
    assert len(commit.inverse_actions) > 0
    assert commit.baseline_ms > 0
    registry = organizer.telemetry.registry
    assert registry.snapshot()[GUARD_COMMITS] == 1

    # a healthy workload graduates the commit after PROBATION_SAMPLES
    after_commit = ConfigurationInstance.capture(db)
    for i in range(guard.PROBATION_SAMPLES):
        _run_bin(retail_suite, db, predictor, monitor, seed=200 + i)
        assert organizer.guard_tick() is None
    assert organizer.guard.active_commit is None
    assert commit.resolution is CommitResolution.PASSED
    assert registry.snapshot()[GUARD_PASSED] == 1
    # the configuration was kept, and the rollback material dropped
    assert ConfigurationInstance.capture(db) == after_commit
    assert commit.inverse_actions == ()


def test_miscalibrated_commit_is_detected_and_rolled_back(retail_suite):
    db = retail_suite.database
    optimizer = WhatIfOptimizer(db)
    # inverted judgement on two features: the pass evicts hot chunks to
    # the slowest tier and shrinks the buffer pool that would otherwise
    # re-cache them — applied cleanly, persistently slower
    bad_tuners = [
        Tuner(
            feature,
            optimizer,
            assessor=MiscalibratedAssessor(
                feature.make_assessor(optimizer), scale=-1.0
            ),
        )
        for feature in (DataPlacementFeature(), BufferPoolFeature())
    ]
    db, organizer, predictor, monitor = _organizer(retail_suite, bad_tuners)
    for i in range(4):
        _run_bin(retail_suite, db, predictor, monitor, seed=100 + i)
    before = ConfigurationInstance.capture(db)

    # the inverted assessor makes harmful placements look attractive: the
    # pass applies cleanly and evicts hot chunks from DRAM
    report = organizer.run_tuning()
    assert report is not None
    assert report.tuning.failed_features == ()
    regressed = ConfigurationInstance.capture(db)
    assert regressed != before
    commit = organizer.guard.active_commit
    assert commit is not None

    # same workload, now measurably slower: the watchdog confirms within
    # the probation window and the organizer rolls back bit-identically
    regressed_ms = []
    for i in range(guard.PROBATION_SAMPLES):
        regressed_ms.append(
            _run_bin(retail_suite, db, predictor, monitor, seed=200 + i)
        )
        organizer.guard_tick()
        if commit.resolution is not None:
            break
    assert commit.resolution is CommitResolution.ROLLED_BACK
    assert ConfigurationInstance.capture(db) == before

    # and the rollback buys back at least 90% of what the commit cost
    recovered_ms = [
        _run_bin(retail_suite, db, predictor, monitor, seed=300 + i)
        for i in range(4)
    ]
    regressed = sum(regressed_ms) / len(regressed_ms)
    recovered = sum(recovered_ms) / len(recovered_ms)
    assert regressed > commit.baseline_ms
    assert regressed - recovered >= 0.9 * (regressed - commit.baseline_ms)

    snap = organizer.telemetry.registry.snapshot()
    assert snap[GUARD_REGRESSIONS] == 1
    assert snap[GUARD_ROLLBACKS] == 1
    # the record keeps the mean that condemned it
    reported = _observed_by_commit(organizer.events)
    assert commit.observed_ms == reported[commit.commit_id]
    assert commit.observed_ms > commit.baseline_ms
    rollback = organizer.events.latest(EventKind.ROLLBACK)
    assert rollback.data["commit_id"] == commit.commit_id
    assert rollback.data["actions"] == len(commit.inverse_actions)
    # a regressing commit counts against its features in the breaker
    for feature in commit.features:
        assert organizer.quarantine.consecutive_failures(feature) == 1
        assert organizer.guard.regression_streak(feature) == 1


def test_driver_wires_guard_into_shared_registry(retail_suite):
    db = retail_suite.database
    driver = Driver(
        [IndexSelectionFeature()],
        triggers=[NeverTrigger()],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=2, min_history_bins=2)
        ),
    )
    db.plugin_host.attach(driver)
    for i in range(3):
        for q in retail_suite.mix.sample_queries(15, seed=50 + i):
            db.execute(q)
        db.plugin_host.tick(db.clock.now_ms)
    report = driver.tune_now()
    assert report is not None
    assert driver.context.organizer.guard.active_commit is not None
    assert driver.context.telemetry.registry.snapshot()[GUARD_COMMITS] == 1
    guard_events = driver.context.events.events(EventKind.GUARD)
    assert guard_events and guard_events[-1].data["state"] == "on_probation"


def _closed_loop(seed, bins, tune_every_bins, swap_at=None):
    """A guarded closed loop over a seeded trace; with ``swap_at`` the
    dominant and the rarest family trade places at that bin."""

    def swap(suite, trace):
        if swap_at is None:
            return trace
        by_rate = sorted(suite.rates, key=lambda name: suite.rates[name].base)
        return swap_dominance(trace, by_rate[-1], by_rate[0], at_bin=swap_at)

    driver = Driver(
        standard_features()[:2],
        triggers=[PeriodicTrigger(every_ms=tune_every_bins * 60_000.0)],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3)
        ),
    )
    run_closed_loop(
        driver, bins, trace_seed=seed, sim_seed=seed, mutate_trace=swap
    )
    return driver


def test_dominance_swap_escalates_before_the_next_periodic_trigger():
    bins, swap_at = 20, 10
    # a periodic trigger too slow to fire twice inside the trace: any
    # pass after the first is the forecast-miss escalation's
    driver = _closed_loop(
        seed=1, bins=bins, tune_every_bins=2 * bins, swap_at=swap_at
    )
    passes = driver.context.store.history()  # one record per pass
    escalated = [r for r in passes if r.trigger == FORECAST_MISS_TRIGGER]
    assert driver.context.telemetry.registry.snapshot()[GUARD_ESCALATIONS] >= 1
    assert escalated
    assert escalated[0].applied_at_ms >= swap_at * 60_000.0
    assert escalated[0].applied_at_ms < (
        passes[0].applied_at_ms + 2 * bins * 60_000.0
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stable_noisy_workload_trips_neither_watchdog(seed):
    driver = _closed_loop(seed=seed, bins=18, tune_every_bins=3)
    snap = driver.context.telemetry.registry.snapshot()
    assert snap[GUARD_COMMITS] >= 1
    assert snap[GUARD_ROLLBACKS] == 0
    assert snap[GUARD_ESCALATIONS] == 0


def test_resolved_records_keep_the_mean_the_guard_reported():
    """The world's answer to a commit is on its record: the KPI mean the
    watchdog resolved the probation with, not only a formatted event."""
    # passes far enough apart for the first probation to run its course
    driver = _closed_loop(seed=1, bins=14, tune_every_bins=10)
    reported = _observed_by_commit(driver.context.events)
    resolved = [
        r for r in driver.context.store.history() if r.resolution is not None
    ]
    assert any(r.resolution is CommitResolution.PASSED for r in resolved)
    for record in resolved:
        if record.resolution is CommitResolution.SUPERSEDED:
            # nothing was concluded about a superseded commit
            assert record.observed_ms is None
            assert record.commit_id not in reported
        else:
            assert record.observed_ms == reported[record.commit_id]

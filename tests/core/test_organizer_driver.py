"""Tests for the organizer and the driver plugin."""

import pytest

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.core.driver import Driver, DriverConfig
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.triggers import NeverTrigger, PeriodicTrigger
from repro.cost import WhatIfOptimizer
from repro.errors import PluginError
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.ordering.lp import LPOrderOptimizer
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB

from tests.conftest import make_organizer


def _prepare(retail_suite, bins=5, per_bin=25):
    db = retail_suite.database
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(bins):
        for q in retail_suite.mix.sample_queries(per_bin, seed=100 + i):
            db.execute(q)
        predictor.observe()
    return db, predictor


def _organizer(db, predictor, **config_kwargs):
    optimizer = WhatIfOptimizer(db)
    return make_organizer(
        predictor,
        [
            Tuner(IndexSelectionFeature(), optimizer),
            Tuner(CompressionFeature(), optimizer),
        ],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=1.0)],
        config=OrganizerConfig(
            horizon_bins=3, min_history_bins=3, **config_kwargs
        ),
    )


def test_organizer_tick_runs_full_pass(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor)
    report = organizer.tick()
    assert report is not None
    assert report.decision.trigger == "periodic"
    assert report.tuning.improvement > 0
    assert organizer.cached_order is not None
    assert organizer.last_tuning_ms is not None
    # one record per pass, holding one outcome per tuned feature
    assert len(organizer.store) == 1
    overall = organizer.store.history()[0]
    assert overall is report.record
    assert tuple(o.feature for o in overall.outcomes) == report.order
    assert overall.measured_benefit_ms is not None
    assert overall.predicted_benefit_ms is not None
    kinds = [e.kind for e in organizer.events.events()]
    assert EventKind.ORDER_PLANNED in kinds
    assert EventKind.TUNING_FINISHED in kinds


def test_organizer_respects_history_and_cooldown(retail_suite):
    db, predictor = _prepare(retail_suite, bins=1)
    organizer = _organizer(db, predictor, cooldown_ms=1e12)
    assert organizer.tick() is None  # not enough history
    for i in range(4):
        predictor.observe()
    first = organizer.tick()
    assert first is not None
    assert organizer.tick() is None  # cooldown blocks


def test_organizer_caches_order_between_runs(retail_suite, monkeypatch):
    monkeypatch.setattr("repro.core.organizer.ORDER_REFRESH_EVERY", 100)
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor)
    first = organizer.tick()
    order_events = organizer.events.events(EventKind.ORDER_PLANNED)
    assert len(order_events) == 1
    second = organizer.run_tuning()
    # order reused, no second planning event
    assert len(organizer.events.events(EventKind.ORDER_PLANNED)) == 1
    assert second.order == first.order


def test_organizer_require_idle_defers(retail_suite, monkeypatch):
    monkeypatch.setattr("repro.kpi.monitor.IDLE_THRESHOLD", 0.01)
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor, require_idle=True)
    # monitor has no quiet samples yet → defer
    report = organizer.tick()
    assert report is None
    assert any(
        e.kind is EventKind.SKIP for e in organizer.events.events()
    )


def test_organizer_manual_run_without_trigger(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = make_organizer(
        predictor,
        [Tuner(CompressionFeature(), WhatIfOptimizer(db))],
        triggers=[NeverTrigger()],
        config=OrganizerConfig(horizon_bins=3, min_history_bins=3),
    )
    assert organizer.tick() is None
    report = organizer.run_tuning()
    assert report.decision.trigger == "manual"
    assert report.tuning.improvement >= 0


def test_organizer_with_no_triggers_never_starts_a_pass(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = make_organizer(
        predictor,
        [Tuner(CompressionFeature(), WhatIfOptimizer(db))],
        triggers=[],
        config=OrganizerConfig(horizon_bins=3, min_history_bins=3),
    )
    decision = organizer.evaluate_triggers()
    assert (decision.should_tune, decision.reason) == (
        False,
        "no triggers configured",
    )
    assert organizer.tick() is None
    assert organizer.events.events(EventKind.TUNING_STARTED) == ()
    # None (not an empty list) keeps the default SLA and drift triggers
    defaults = make_organizer(
        predictor, [Tuner(CompressionFeature(), WhatIfOptimizer(db))]
    )
    assert defaults.evaluate_triggers().trigger == "forecast_drift"


def test_one_feature_pass_plans_no_order(retail_suite, monkeypatch):
    def no_lp(self, matrix):
        raise AssertionError("a one-feature pass solved the ordering LP")

    monkeypatch.setattr(LPOrderOptimizer, "optimize", no_lp)
    db, predictor = _prepare(retail_suite)
    organizer = make_organizer(
        predictor,
        [Tuner(IndexSelectionFeature(), WhatIfOptimizer(db))],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
        triggers=[NeverTrigger()],
        config=OrganizerConfig(horizon_bins=3, min_history_bins=3),
    )
    report = organizer.run_tuning()
    assert organizer.events.events(EventKind.ORDER_PLANNED) == ()
    assert report.order == ("index_selection",)
    assert [run.feature for run in report.tuning.runs] == ["index_selection"]
    assert report.tuning.runs[0].result.chosen
    assert db.index_bytes() > 0


# ----------------------------------------------------------------------
# driver


def test_driver_requires_features():
    with pytest.raises(PluginError):
        Driver([])


def test_driver_attach_detach_cycle(retail_suite):
    db = retail_suite.database
    driver = Driver([CompressionFeature()])
    db.plugin_host.attach(driver)
    assert db.plugin_host.is_attached("self-driving")
    assert driver.database is db
    db.plugin_host.detach("self-driving")
    with pytest.raises(PluginError):
        driver.database


def test_driver_on_tick_observes_and_checks(retail_suite):
    db = retail_suite.database
    driver = Driver(
        [CompressionFeature()],
        triggers=[NeverTrigger()],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=2, min_history_bins=2)
        ),
    )
    db.plugin_host.attach(driver)
    for i in range(3):
        for q in retail_suite.mix.sample_queries(10, seed=i):
            db.execute(q)
        db.plugin_host.tick(db.clock.now_ms)
    assert driver.context.predictor.history_bins == 3
    assert len(driver.context.monitor.history()) == 3
    # NeverTrigger: no tuning happened
    assert driver.context.events.events(EventKind.TUNING_FINISHED) == ()


def test_driver_tune_now(retail_suite):
    db = retail_suite.database
    driver = Driver(
        [IndexSelectionFeature()],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
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
    assert report.tuning.improvement > 0
    assert db.index_bytes() > 0

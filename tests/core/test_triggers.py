"""Tests for tuning triggers."""

import pytest

from repro.configuration.constraints import ConstraintSet, SlaConstraint
from repro.core.triggers import (
    ForecastDriftTrigger,
    NeverTrigger,
    PeriodicTrigger,
    SlaViolationTrigger,
    TriggerContext,
)
from repro.cost.what_if import WhatIfOptimizer
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.kpi.metrics import MEAN_QUERY_MS
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.workload import Predicate, Query

from tests.conftest import make_organizer, make_small_database


def _context(db, predictor=None, constraints=None, last_tuning=None):
    predictor = predictor or WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    return TriggerContext(
        predictor=predictor,
        monitor=RuntimeKPIMonitor(db),
        optimizer=WhatIfOptimizer(db),
        constraints=constraints or ConstraintSet(),
        now_ms=db.clock.now_ms,
        horizon_bins=2,
        last_tuning_ms=last_tuning,
    )


def _run(db, count, value):
    for _ in range(count):
        db.execute(
            Query("events", (Predicate("user", "=", value),), aggregate="count")
        )


def test_periodic_trigger_fires_initially_and_after_interval():
    db = make_small_database(rows=200)
    trigger = PeriodicTrigger(every_ms=100.0)
    assert trigger.evaluate(_context(db)).should_tune  # never tuned
    assert not trigger.evaluate(_context(db, last_tuning=db.clock.now_ms)).should_tune
    db.clock.advance(200.0)
    assert trigger.evaluate(
        _context(db, last_tuning=db.clock.now_ms - 150)
    ).should_tune


def test_periodic_trigger_validation():
    with pytest.raises(ValueError):
        PeriodicTrigger(every_ms=0)


def test_never_trigger():
    db = make_small_database(rows=200)
    assert not NeverTrigger().evaluate(_context(db)).should_tune


def test_drift_trigger_needs_history():
    db = make_small_database(rows=500)
    decision = ForecastDriftTrigger().evaluate(_context(db))
    assert not decision.should_tune
    assert "history" in decision.reason


def test_drift_trigger_quiet_on_stable_workload():
    db = make_small_database(rows=2_000)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for _ in range(6):
        _run(db, 5, 3)
        predictor.observe()
    decision = ForecastDriftTrigger(relative_threshold=0.15).evaluate(
        _context(db, predictor)
    )
    assert not decision.should_tune
    assert decision.details["drift"] < 0.15


def test_drift_trigger_fires_on_growth(monkeypatch):
    monkeypatch.setattr("repro.core.triggers.RECENT_WINDOW_BINS", 6)
    db = make_small_database(rows=2_000)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    # naive-last forecasts the last bin; make the last bin much hotter
    for count in (5, 5, 5, 5, 5, 40):
        _run(db, count, 3)
        predictor.observe()
    decision = ForecastDriftTrigger(relative_threshold=0.5).evaluate(
        _context(db, predictor)
    )
    assert decision.should_tune
    assert decision.details["drift"] > 0.5


def test_sla_trigger_requires_configured_slas():
    db = make_small_database(rows=200)
    decision = SlaViolationTrigger().evaluate(_context(db))
    assert not decision.should_tune
    assert "no SLAs" in decision.reason


def test_sla_trigger_fires_after_patience():
    db = make_small_database(rows=5_000)
    constraints = ConstraintSet(
        slas=[SlaConstraint(MEAN_QUERY_MS, 1e-9, patience=2)]
    )
    context = _context(db, constraints=constraints)
    _run(db, 2, 1)
    context.monitor.sample()
    first = SlaViolationTrigger().evaluate(context)
    assert not first.should_tune  # patience not yet reached
    _run(db, 2, 1)
    context.monitor.sample()
    second = SlaViolationTrigger().evaluate(context)
    assert second.should_tune
    assert MEAN_QUERY_MS in second.reason


def test_drift_trigger_validation():
    with pytest.raises(ValueError):
        ForecastDriftTrigger(relative_threshold=0)


def test_trigger_precedence_sla_wins_when_all_fire(monkeypatch):
    """Trigger precedence is list order: the organizer returns the first
    firing trigger, so an SLA breach outranks drift and periodic when all
    three fire on the same tick."""
    from repro.core.organizer import OrganizerConfig
    from repro.tuning.features import CompressionFeature
    from repro.tuning.tuner import Tuner

    monkeypatch.setattr("repro.core.triggers.RECENT_WINDOW_BINS", 6)
    db = make_small_database(rows=5_000)
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    # naive-last forecasts the last bin; a hot final bin makes drift fire
    for count in (5, 5, 5, 5, 5, 40):
        _run(db, count, 3)
        predictor.observe()
    constraints = ConstraintSet(
        slas=[SlaConstraint(MEAN_QUERY_MS, 1e-9, patience=1)]
    )
    triggers = [
        SlaViolationTrigger(),
        ForecastDriftTrigger(relative_threshold=0.5),
        PeriodicTrigger(every_ms=100.0),
    ]
    organizer = make_organizer(
        predictor,
        [Tuner(CompressionFeature(), WhatIfOptimizer(db))],
        constraints=constraints,
        triggers=triggers,
        config=OrganizerConfig(horizon_bins=2, min_history_bins=2),
    )
    # the monitor samples per interval: breach the SLA inside this one
    _run(db, 5, 3)
    organizer.monitor.sample()

    # every trigger fires individually on the organizer's context
    context = TriggerContext(
        predictor=predictor,
        monitor=organizer.monitor,
        optimizer=WhatIfOptimizer(db),
        constraints=constraints,
        now_ms=db.clock.now_ms,
        horizon_bins=2,
        last_tuning_ms=None,
    )
    for trigger in triggers:
        assert trigger.evaluate(context).should_tune, trigger.name

    decision = organizer.evaluate_triggers()
    assert decision.should_tune
    assert decision.trigger == "sla_violation"
    assert decision.reason == (
        f"SLA on {MEAN_QUERY_MS} breached (> 1e-09 for 1 samples)"
    )

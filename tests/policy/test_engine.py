"""Tests for the policy engine: plan proposal, pricing, and selection."""

from types import SimpleNamespace

import pytest

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.cost.what_if import WhatIfOptimizer
from repro.kpi.metrics import (
    P99_QUERY_MS,
    POLICY_EVALUATIONS,
    POLICY_PLANS_EVALUATED,
    POLICY_PLANS_EXECUTED,
    POLICY_PLANS_INFEASIBLE,
    POLICY_STEPS_PROPOSED,
    POLICY_VIOLATIONS,
)
from repro.policy.engine import (
    ObjectiveViolationTrigger,
    PlanAlternative,
    PolicyEngine,
)
from repro.policy.objectives import LatencyObjective, PlanMetrics, Policy
from repro.telemetry.metrics import MetricRegistry
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB
from tests.conftest import make_forecast


def _engine(bound_ms=500.0, patience=1, **kwargs):
    policy = Policy(
        objectives=(LatencyObjective(bound_ms=bound_ms),),
        violation_patience=patience,
        **kwargs,
    )
    return PolicyEngine(policy, MetricRegistry())


def _pipeline(retail_suite):
    """Tuners, order, forecast, constraints, and one shared optimizer."""
    db = retail_suite.database
    optimizer = WhatIfOptimizer(db)
    tuners = {
        t.feature_name: t
        for t in (
            Tuner(IndexSelectionFeature(), db, optimizer=optimizer),
            Tuner(CompressionFeature(), db, optimizer=optimizer),
        )
    }
    forecast = make_forecast(retail_suite)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    return db, optimizer, tuners, forecast, constraints


class _FakeMonitor:
    def __init__(self, means=None):
        self._means = means or {}
        self.latest = None

    def mean(self, metric, last_n=None):
        return self._means.get(metric, 0.0)


def _context(means=None):
    return SimpleNamespace(monitor=_FakeMonitor(means))


# ----------------------------------------------------------------------
# plan-propose


def test_propose_steps_applies_nothing(retail_suite):
    db, optimizer, tuners, forecast, constraints = _pipeline(retail_suite)
    engine = _engine()
    steps = engine.propose_steps(
        tuners=tuners,
        order=tuple(tuners),
        forecast=forecast,
        constraints=constraints,
        optimizer=optimizer,
    )
    assert steps  # the untouched suite leaves plenty to improve
    assert db.index_bytes() == 0  # proposed, not applied
    for step in steps:
        assert step.feature in tuners
        assert not step.result.is_noop
    snap = engine.registry.snapshot()
    assert snap[POLICY_STEPS_PROPOSED] == len(steps)


# ----------------------------------------------------------------------
# plan-evaluate


def test_evaluate_plans_prices_every_prefix(retail_suite):
    db, optimizer, tuners, forecast, constraints = _pipeline(retail_suite)
    engine = _engine()
    steps = engine.propose_steps(
        tuners=tuners,
        order=tuple(tuners),
        forecast=forecast,
        constraints=constraints,
        optimizer=optimizer,
    )
    report = engine.evaluate_plans(
        steps=steps,
        forecast=forecast,
        optimizer=optimizer,
        db=db,
        context=_context({P99_QUERY_MS: 10.0}),
    )
    assert db.index_bytes() == 0  # pricing is hypothetical
    assert report.baseline_cost_ms > 0
    assert len(report.alternatives) == len(steps)
    for k, alternative in enumerate(report.alternatives, start=1):
        assert alternative.features == tuple(s.feature for s in steps[:k])
        assert alternative.metrics.expected_cost_ms > 0
        # a proposed improvement should not predict a cost increase
        assert alternative.metrics.cost_ratio <= 1.0 + 1e-9
    assert report.chosen in report.alternatives
    snap = engine.registry.snapshot()
    assert snap[POLICY_PLANS_EVALUATED] == len(report.alternatives)


def test_evaluate_plans_respects_max_alternatives(retail_suite):
    db, optimizer, tuners, forecast, constraints = _pipeline(retail_suite)
    engine = _engine(max_alternatives=1)
    steps = engine.propose_steps(
        tuners=tuners,
        order=tuple(tuners),
        forecast=forecast,
        constraints=constraints,
        optimizer=optimizer,
    )
    assert len(steps) > 1
    report = engine.evaluate_plans(
        steps=steps,
        forecast=forecast,
        optimizer=optimizer,
        db=db,
        context=_context({P99_QUERY_MS: 10.0}),
    )
    assert len(report.alternatives) == 1


# ----------------------------------------------------------------------
# plan selection


def _alternative(plan_id, n_steps, feasible, score):
    return PlanAlternative(
        plan_id=plan_id,
        steps=(None,) * n_steps,
        metrics=PlanMetrics(expected_cost_ms=1.0, baseline_cost_ms=1.0),
        statuses=(),
        feasible=feasible,
        score=score,
    )


def test_choose_prefers_fewest_feasible_steps():
    chosen = PolicyEngine._choose(
        [
            _alternative(1, 1, feasible=True, score=0.1),
            _alternative(2, 2, feasible=True, score=0.9),
        ]
    )
    assert chosen.plan_id == 1


def test_choose_breaks_step_ties_by_score():
    chosen = PolicyEngine._choose(
        [
            _alternative(1, 1, feasible=True, score=0.1),
            _alternative(2, 1, feasible=True, score=0.9),
        ]
    )
    assert chosen.plan_id == 2


def test_choose_falls_back_to_least_bad_when_infeasible():
    chosen = PolicyEngine._choose(
        [
            _alternative(1, 1, feasible=False, score=-0.9),
            _alternative(2, 2, feasible=False, score=-0.2),
        ]
    )
    assert chosen.plan_id == 2
    assert PolicyEngine._choose([]) is None


def test_note_executed_counts_infeasible_plans():
    engine = _engine()
    engine.note_executed(_alternative(1, 1, feasible=True, score=0.5))
    engine.note_executed(_alternative(2, 1, feasible=False, score=-0.5))
    snap = engine.registry.snapshot()
    assert snap[POLICY_PLANS_EXECUTED] == 2
    assert snap[POLICY_PLANS_INFEASIBLE] == 1


# ----------------------------------------------------------------------
# the generalized trigger


def test_objective_violation_trigger_honors_patience():
    engine = _engine(bound_ms=10.0, patience=2)
    trigger = ObjectiveViolationTrigger(engine)
    breached = _context({P99_QUERY_MS: 20.0})
    first = trigger.evaluate(breached)
    assert not first.should_tune
    assert "1/2" in first.reason
    second = trigger.evaluate(breached)
    assert second.should_tune
    assert second.trigger == "objective_violation"
    assert "violated" in second.reason
    # details carry the per-objective floats for event payloads
    assert second.details[f"{P99_QUERY_MS}_margin"] == pytest.approx(-1.0)
    snap = engine.registry.snapshot()
    assert snap[POLICY_EVALUATIONS] == 2
    assert snap[POLICY_VIOLATIONS] == 2


def test_objective_violation_trigger_streak_resets():
    engine = _engine(bound_ms=10.0, patience=2)
    trigger = ObjectiveViolationTrigger(engine)
    breached = _context({P99_QUERY_MS: 20.0})
    healthy = _context({P99_QUERY_MS: 5.0})
    assert not trigger.evaluate(breached).should_tune
    ok = trigger.evaluate(healthy)
    assert not ok.should_tune
    assert "satisfied" in ok.reason
    # the breach streak starts over after a healthy evaluation
    assert not trigger.evaluate(breached).should_tune
    assert trigger.evaluate(breached).should_tune

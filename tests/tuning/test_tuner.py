"""Tests for the end-to-end tuner pipeline."""

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.cost import WhatIfOptimizer
from repro.telemetry import Telemetry
from repro.tuning.assessment import Assessment
from repro.tuning.candidate import IndexCandidate
from repro.tuning.selectors import GreedySelector, OptimalSelector, RobustSelector
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB

from tests.conftest import make_forecast


def test_index_tuning_improves_workload_within_budget(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    telemetry = Telemetry(db.clock)
    tuner = Tuner(
        IndexSelectionFeature(), WhatIfOptimizer(db), telemetry=telemetry
    )
    result = tuner.propose(forecast, constraints)
    assert result.candidate_count > 0
    assert result.chosen
    assert result.predicted_benefit_ms > 0
    assert not result.is_noop
    # a phase is timed by its span: the three exist, in order, each
    # carrying the host time it took
    phases = telemetry.tracer.roots()
    assert [span.name for span in phases] == ["enumerate", "assess", "select"]
    assert all(span.wall_ms > 0 for span in phases)
    # nothing applied yet
    assert db.index_bytes() == 0
    report = tuner.apply(result)
    assert report.action_count == len(result.delta)
    assert 0 < db.index_bytes() <= 1 * MIB


def test_tuning_is_idempotent_when_reapplied(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    tuner = Tuner(IndexSelectionFeature(), WhatIfOptimizer(db))
    tuner.tune(forecast, constraints)
    instance = ConfigurationInstance.capture(db)
    result2, _report = tuner.tune(forecast, constraints)
    assert result2.is_noop
    assert ConfigurationInstance.capture(db).indexes == instance.indexes


def test_compression_tuning_reduces_cost_and_memory(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    optimizer = WhatIfOptimizer(db)
    before_cost = optimizer.scenario_cost_ms(
        forecast.expected, dict(forecast.sample_queries)
    )
    before_bytes = db.data_bytes()
    tuner = Tuner(CompressionFeature(), WhatIfOptimizer(db))
    result, _report = tuner.tune(forecast)
    after_cost = optimizer.scenario_cost_ms(
        forecast.expected, dict(forecast.sample_queries)
    )
    assert after_cost < before_cost
    assert db.data_bytes() < before_bytes
    assert result.predicted_desirability["expected"] > 0


def test_tuner_with_custom_selector(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    tuner = Tuner(
        IndexSelectionFeature(),
        WhatIfOptimizer(db),
        selector=OptimalSelector(),
    )
    result = tuner.propose(
        forecast, ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])
    )
    assert result.selector_name == "optimal"
    used = sum(a.permanent_cost(INDEX_MEMORY) for a in result.chosen)
    assert used <= 1 * MIB


def test_reconfiguration_weight_shrinks_delta(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, frequency=1.0)  # low stakes
    optimizer = WhatIfOptimizer(db)
    eager = Tuner(IndexSelectionFeature(), optimizer).propose(forecast)
    cautious = Tuner(
        IndexSelectionFeature(), optimizer, reconfiguration_weight=5.0
    ).propose(forecast)
    assert len(cautious.chosen) <= len(eager.chosen)


class _RecordingSelector(GreedySelector):
    """Greedy selection that keeps the score the tuner handed it."""

    def select(self, assessments, budgets, score):
        self.score = score
        return super().select(assessments, budgets, score)


def test_the_score_subtracts_weighted_one_time_cost(retail_suite):
    """The tuner charges ``weight * one_time_cost_ms`` against the
    selector's criterion, the robust one included."""
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    probe = Assessment(
        candidate=IndexCandidate("t", ("x",)),
        desirability={name: 10.0 for name in forecast.scenario_names},
        one_time_cost_ms=4.0,
    )
    probe.desirability[forecast.scenario_names[-1]] = 6.0
    expected = probe.expected(
        {s.name: s.probability for s in forecast.scenarios}
    )
    for weight in (0.0, 0.5):
        plain = _RecordingSelector()
        Tuner(
            IndexSelectionFeature(), WhatIfOptimizer(db), selector=plain,
            reconfiguration_weight=weight,
        ).propose(forecast)
        assert plain.score(probe) == expected - weight * 4.0
        base = _RecordingSelector()
        Tuner(
            IndexSelectionFeature(), WhatIfOptimizer(db),
            selector=RobustSelector(base, "worst_case"),
            reconfiguration_weight=weight,
        ).propose(forecast)
        assert base.score(probe) == 6.0 - weight * 4.0


def test_predicted_benefit_is_probability_weighted(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=["point_customer"])
    result = Tuner(IndexSelectionFeature(), WhatIfOptimizer(db)).propose(
        forecast
    )
    expected = sum(
        forecast.scenario(name).probability * value
        for name, value in result.predicted_desirability.items()
    )
    assert result.predicted_benefit_ms == pytest.approx(expected)

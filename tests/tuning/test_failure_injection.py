"""Failure injection: the pipeline fails loudly on misbehaving components."""

import pytest

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.cost import WhatIfOptimizer
from repro.errors import ForecastError, TuningError
from repro.forecasting.scenarios import point_forecast
from repro.tuning.features import IndexSelectionFeature
from repro.tuning.selectors.base import Selector
from repro.tuning.tuner import Tuner
from repro.util.units import KIB

from tests.conftest import make_forecast


class _BudgetIgnoringSelector(Selector):
    """A broken selector that returns everything regardless of budgets."""

    name = "take-everything"

    def select(self, assessments, budgets, score):
        return list(assessments)


class _DuplicatingSelector(Selector):
    """A broken selector that returns group members twice."""

    name = "duplicator"

    def select(self, assessments, budgets, score):
        return list(assessments) + list(assessments)


def test_tuner_rejects_budget_violating_selection(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    constraints = ConstraintSet([ResourceBudget(INDEX_MEMORY, 64 * KIB)])
    tuner = Tuner(
        IndexSelectionFeature(),
        WhatIfOptimizer(db),
        selector=_BudgetIgnoringSelector(),
    )
    with pytest.raises(RuntimeError, match="infeasible"):
        tuner.propose(forecast, constraints)
    # the failed run must not have touched the database
    assert db.index_bytes() == 0


def test_empty_forecast_yields_noop_tuning(retail_suite):
    db = retail_suite.database
    # a forecast whose workload references no known table
    from repro.workload import Predicate, Query

    ghost = Query("orders", (Predicate("customer", "=", 1),), aggregate="count")
    forecast = point_forecast({}, {ghost.template().key: ghost})
    result = Tuner(IndexSelectionFeature(), WhatIfOptimizer(db)).propose(
        forecast
    )
    # zero frequencies: nothing has positive benefit, nothing is applied
    assert result.is_noop or result.predicted_benefit_ms == 0.0


def test_forecast_with_no_scenarios_is_impossible():
    from repro.forecasting.scenarios import Forecast

    with pytest.raises(ForecastError):
        Forecast(scenarios=(), horizon_bins=1, bin_duration_ms=1.0)


def test_buffer_pool_assessor_type_guard(retail_suite):
    from repro.tuning.assessors import BufferPoolAssessor
    from repro.tuning.candidate import IndexCandidate

    forecast = make_forecast(retail_suite)
    with pytest.raises(TuningError):
        BufferPoolAssessor().assess(
            [IndexCandidate("orders", ("customer",))],
            retail_suite.database,
            forecast,
        )


def test_sort_benefit_assessor_type_guard(retail_suite):
    from repro.tuning.assessors import SortBenefitAssessor
    from repro.tuning.candidate import IndexCandidate

    forecast = make_forecast(retail_suite)
    assessor = SortBenefitAssessor(WhatIfOptimizer(retail_suite.database))
    with pytest.raises(TuningError):
        assessor.assess(
            [IndexCandidate("orders", ("customer",))],
            retail_suite.database,
            forecast,
        )

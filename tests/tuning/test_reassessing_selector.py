"""Tests for the re-assessing greedy selector (candidate interactions)."""

import pytest

from repro.configuration.constraints import INDEX_MEMORY
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.segments import EncodingType
from repro.tuning.assessment import Assessment
from repro.tuning.assessors.cost_model import CostModelAssessor
from repro.tuning.candidate import EncodingCandidate, IndexCandidate
from repro.tuning.features.index_selection import IndexSelectionFeature
from repro.tuning.selectors.reassessing import ReassessingGreedySelector
from repro.util.units import MIB

from tests.conftest import make_forecast


def _setup(retail_suite, families=None):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=families)
    feature = IndexSelectionFeature(max_width=2)
    assessor = CostModelAssessor(WhatIfOptimizer(db))
    reset = feature.reset_delta(db, forecast)
    candidates = feature.make_enumerator().candidates(db, forecast)
    assessments = assessor.assess(candidates, db, forecast, reset)
    selector = ReassessingGreedySelector(assessor, db, forecast, reset)
    probabilities = {s.name: s.probability for s in forecast.scenarios}
    return db, assessments, selector, probabilities


def test_reassessment_avoids_redundant_overlapping_indexes(retail_suite):
    """customer_recent produces both (customer) and (customer, order_date)
    candidates that serve the same queries; additive scoring double-counts
    them, re-assessment prices the second at ~0 once the first is chosen."""
    db, assessments, selector, probabilities = _setup(
        retail_suite, families=["customer_recent", "point_customer"]
    )
    overlapping = [
        a
        for a in assessments
        if isinstance(a.candidate, IndexCandidate)
        and a.candidate.columns[0] == "customer"
    ]
    assert len(overlapping) >= 2  # (customer) and (customer, order_date)

    chosen = selector.select(
        assessments, {INDEX_MEMORY: 8 * MIB}, selector.desirability(probabilities)
    )
    customer_rooted = [
        a
        for a in chosen
        if a.candidate.columns[0] == "customer"
    ]
    # only one of the overlapping customer indexes survives
    assert len(customer_rooted) == 1


def test_reassessment_respects_budget(retail_suite):
    db, assessments, selector, probabilities = _setup(retail_suite)
    budget = 512 * 1024
    chosen = selector.select(
        assessments, {INDEX_MEMORY: budget}, selector.desirability(probabilities)
    )
    used = sum(a.permanent_cost(INDEX_MEMORY) for a in chosen)
    assert used <= budget
    assert db.index_bytes() == 0  # selection is hypothetical only


def test_rejects_required_groups(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    assessor = CostModelAssessor(WhatIfOptimizer(db))
    selector = ReassessingGreedySelector(assessor, db, forecast)
    grouped = Assessment(
        candidate=EncodingCandidate("orders", "status", EncodingType.DICTIONARY),
        desirability={"expected": 1.0},
    )
    with pytest.raises(ValueError):
        selector.select([grouped], {}, selector.desirability({"expected": 1.0}))


def test_rejects_non_reassessing_assessor(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)

    class Frozen(CostModelAssessor):
        supports_reassessment = False

    with pytest.raises(ValueError):
        ReassessingGreedySelector(Frozen(WhatIfOptimizer(db)), db, forecast)

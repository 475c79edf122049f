"""Tests for the four selector classes, including feasibility properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import WhatIfOptimizer
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.errors import SelectionError
from repro.tuning.assessment import Assessment
from repro.tuning.candidate import (
    EncodingCandidate,
    IndexCandidate,
    KnobCandidate,
    PlacementCandidate,
)
from repro.tuning.features import BufferPoolFeature
from repro.tuning.selectors import (
    GeneticSelector,
    GreedySelector,
    OptimalSelector,
    RobustSelector,
    group_members,
    validate_selection,
)
from repro.tuning.selectors.robust import (
    MEAN_VARIANCE,
    VALUE_AT_RISK,
    WORST_CASE,
    value_at_risk,
)
from repro.tuning.tuner import Tuner

from tests.conftest import make_dram_pressed_retail, make_forecast

PROBS = {"expected": 1.0}
MEM = "index_memory_bytes"


def _index_assessment(name, benefit, memory, one_time=0.0):
    return Assessment(
        candidate=IndexCandidate("t", (name,)),
        desirability={"expected": benefit},
        permanent_costs={MEM: memory},
        one_time_cost_ms=one_time,
    )


def _knapsack_instance():
    """benefit/memory: a(10/5) b(9/4) c(6/3) d(1/1); budget 8 → optimal {b,c,d}=16."""
    return [
        _index_assessment("a", 10.0, 5.0),
        _index_assessment("b", 9.0, 4.0),
        _index_assessment("c", 6.0, 3.0),
        _index_assessment("d", 1.0, 1.0),
    ]


def _total(chosen):
    return sum(a.desirability["expected"] for a in chosen)


def _select(selector, assessments, budgets, probabilities=PROBS):
    """Select under the selector's own criterion, no one-time charge."""
    return selector.select(
        assessments, budgets, selector.desirability(probabilities)
    )


def test_optimal_solves_knapsack_exactly():
    chosen = _select(OptimalSelector(), _knapsack_instance(), {MEM: 8.0})
    assert _total(chosen) == pytest.approx(16.0)


def test_greedy_is_feasible_and_decent():
    assessments = _knapsack_instance()
    chosen = _select(GreedySelector(), assessments, {MEM: 8.0})
    used = sum(a.permanent_cost(MEM) for a in chosen)
    assert used <= 8.0
    assert _total(chosen) >= 12.0  # not optimal, but sane


def test_genetic_matches_optimal_on_small_instance():
    chosen = _select(
        GeneticSelector(seed=1, generations=40), _knapsack_instance(), {MEM: 8.0}
    )
    assert _total(chosen) == pytest.approx(16.0)


@pytest.mark.parametrize(
    "selector",
    [GreedySelector(), OptimalSelector(), GeneticSelector(seed=0)],
)
def test_selectors_skip_negative_candidates(selector):
    assessments = [
        _index_assessment("good", 5.0, 1.0),
        _index_assessment("bad", -5.0, 1.0),
    ]
    chosen = _select(selector, assessments, {MEM: 10.0})
    names = {a.candidate.columns[0] for a in chosen}
    assert names == {"good"}


@pytest.mark.parametrize(
    "selector",
    [GreedySelector(), OptimalSelector(), GeneticSelector(seed=0)],
)
def test_selectors_respect_required_groups(selector):
    def encoding_assessment(encoding, benefit, memory):
        return Assessment(
            candidate=EncodingCandidate("t", "x", encoding),
            desirability={"expected": benefit},
            permanent_costs={MEM: memory},
        )

    assessments = [
        encoding_assessment(EncodingType.UNENCODED, 0.0, 0.0),
        encoding_assessment(EncodingType.DICTIONARY, 5.0, 2.0),
        encoding_assessment(EncodingType.RUN_LENGTH, -3.0, 1.0),
    ]
    chosen = _select(selector, assessments, {MEM: 10.0})
    groups = [a.candidate.group for a in chosen]
    assert groups.count(assessments[0].candidate.group) == 1
    # the best member should win
    picked = next(a for a in chosen if a.candidate.group is not None)
    assert picked.candidate.encoding is EncodingType.DICTIONARY


@pytest.mark.parametrize(
    "selector",
    [GreedySelector(), OptimalSelector(), GeneticSelector(seed=3)],
)
def test_selectors_downgrade_under_negative_budget(selector):
    """Placement-style instance: every chunk must get a tier; the DRAM
    budget forces evictions (negative headroom relative to all-DRAM)."""
    dram = "dram_bytes"

    def placement(chunk, tier, benefit, dram_cost):
        return Assessment(
            candidate=PlacementCandidate("t", chunk, tier),
            desirability={"expected": benefit},
            permanent_costs={dram: dram_cost},
        )

    assessments = []
    for chunk in range(3):
        assessments.append(placement(chunk, StorageTier.DRAM, 0.0, 0.0))
        assessments.append(placement(chunk, StorageTier.NVM, -2.0 - chunk, -100.0))
        assessments.append(placement(chunk, StorageTier.SSD, -20.0 - chunk, -100.0))
    # all-DRAM uses 0 headroom; budget demands freeing 150 bytes
    chosen = _select(selector, assessments, {dram: -150.0})
    assert len(chosen) == 3  # one per chunk
    used = sum(a.permanent_cost(dram) for a in chosen)
    assert used <= -150.0
    # two cheapest evictions to NVM, never SSD
    tiers = [a.candidate.tier for a in chosen]
    assert StorageTier.SSD not in tiers
    assert sum(1 for a in chosen if a.candidate.tier is StorageTier.NVM) == 2


def test_greedy_raises_when_infeasible():
    assessments = [_index_assessment("a", 5.0, 10.0)]
    # budget cannot be met by any subset: required... index is optional, so
    # empty selection is feasible; use an impossible negative budget instead
    with pytest.raises(SelectionError):
        _select(GreedySelector(), assessments, {MEM: -1.0})


def test_optimal_raises_when_infeasible():
    assessments = [_index_assessment("a", 5.0, 10.0)]
    with pytest.raises(SelectionError):
        _select(OptimalSelector(), assessments, {MEM: -1.0})


def test_empty_input_returns_empty():
    assert _select(OptimalSelector(), [], {}) == []
    assert _select(GeneticSelector(), [], {}) == []
    assert _select(GreedySelector(), [], {}) == []


def test_reconfiguration_weight_suppresses_marginal_candidates():
    assessments = [_index_assessment("a", 5.0, 1.0, one_time=20.0)]
    with_weight = GreedySelector().select(
        assessments,
        {MEM: 10.0},
        lambda a: a.expected(PROBS) - 0.5 * a.one_time_cost_ms,
    )
    assert with_weight == []
    without = _select(GreedySelector(), assessments, {MEM: 10.0})
    assert len(without) == 1


# ----------------------------------------------------------------------
# robust selectors


def _scenario_assessment(name, expected, worst, memory=1.0):
    return Assessment(
        candidate=IndexCandidate("t", (name,)),
        desirability={"expected": expected, "worst_case": worst},
        permanent_costs={MEM: memory},
    )


SCENARIO_PROBS = {"expected": 0.8, "worst_case": 0.2}


def test_worst_case_criterion_prefers_stable_candidate():
    risky = _scenario_assessment("risky", 10.0, -8.0)
    stable = _scenario_assessment("stable", 4.0, 3.0)
    chosen = _select(
        RobustSelector(OptimalSelector(), WORST_CASE),
        [risky, stable],
        {MEM: 1.0},
        SCENARIO_PROBS,
    )
    assert [a.candidate.columns[0] for a in chosen] == ["stable"]
    # the plain expected-value selector would pick the risky one
    plain = _select(OptimalSelector(), [risky, stable], {MEM: 1.0}, SCENARIO_PROBS)
    assert [a.candidate.columns[0] for a in plain] == ["risky"]


def test_mean_variance_penalizes_spread():
    risky = _scenario_assessment("risky", 6.0, -6.0)
    stable = _scenario_assessment("stable", 3.0, 3.0)
    chosen = _select(
        RobustSelector(OptimalSelector(), MEAN_VARIANCE, risk_aversion=2.0),
        [risky, stable],
        {MEM: 1.0},
        SCENARIO_PROBS,
    )
    assert [a.candidate.columns[0] for a in chosen] == ["stable"]


def test_value_at_risk_quantile():
    desirability = {"expected": 10.0, "worst_case": -5.0}
    assert value_at_risk(desirability, SCENARIO_PROBS, alpha=0.1) == -5.0
    assert value_at_risk(desirability, SCENARIO_PROBS, alpha=0.9) == 10.0


def test_var_criterion_selects():
    risky = _scenario_assessment("risky", 10.0, -5.0)
    chosen = _select(
        RobustSelector(OptimalSelector(), VALUE_AT_RISK, alpha=0.1),
        [risky],
        {MEM: 1.0},
        SCENARIO_PROBS,
    )
    assert chosen == []  # VaR at 10% is negative → rejected


def test_robust_selector_validation():
    with pytest.raises(ValueError):
        RobustSelector(GreedySelector(), "magic")
    with pytest.raises(ValueError):
        RobustSelector(GreedySelector(), alpha=0.0)


# ----------------------------------------------------------------------
# property: every selector output is feasible


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-10, max_value=20),
            st.floats(min_value=0, max_value=10),
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=0, max_value=30),
)
def test_property_selections_stay_within_budget(items, budget):
    assessments = [
        _index_assessment(f"c{i}", benefit, memory)
        for i, (benefit, memory) in enumerate(items)
    ]
    for selector in (GreedySelector(), OptimalSelector(), GeneticSelector(seed=0, generations=10)):
        chosen = _select(selector, assessments, {MEM: budget})
        chosen_ids = {assessments.index(a) for a in chosen}
        assert validate_selection(assessments, chosen_ids, {MEM: budget}) == []


def test_optimal_never_worse_than_greedy_or_genetic():
    rng = np.random.default_rng(7)
    for _ in range(5):
        assessments = [
            _index_assessment(
                f"c{i}", float(rng.uniform(-5, 15)), float(rng.uniform(0.5, 5))
            )
            for i in range(10)
        ]
        budget = {MEM: float(rng.uniform(3, 15))}
        optimal = _total(_select(OptimalSelector(), assessments, budget))
        greedy = _total(_select(GreedySelector(), assessments, budget))
        genetic = _total(
            _select(GeneticSelector(seed=0, generations=30), assessments, budget)
        )
        assert optimal >= greedy - 1e-9
        assert optimal >= genetic - 1e-9


# ----------------------------------------------------------------------
# property: the selectors agree on when no selection is feasible

DRAM = "dram_bytes"
#: HiGHS stops at this relative gap between incumbent and bound
MILP_RELATIVE_GAP = 1e-4

_desirability = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def _instances(draw):
    """One integer-byte resource, an integer budget (negative allowed),
    required groups with members of any integer cost, and optional
    candidates with non-negative cost."""
    assessments = []
    for group in range(draw(st.integers(0, 3))):
        for member in range(draw(st.integers(1, 4))):
            assessments.append(
                Assessment(
                    candidate=KnobCandidate(f"knob{group}", float(member)),
                    desirability={
                        "expected": draw(_desirability),
                        "worst_case": draw(_desirability),
                    },
                    permanent_costs={DRAM: draw(st.integers(-(2**20), 2**20))},
                )
            )
    for i in range(draw(st.integers(0, 6))):
        assessments.append(
            Assessment(
                candidate=IndexCandidate("t", (f"c{i}",)),
                desirability={
                    "expected": draw(_desirability),
                    "worst_case": draw(_desirability),
                },
                permanent_costs={DRAM: draw(st.integers(0, 2**20))},
            )
        )
    budget = draw(st.integers(-(2**21), 2**21))
    return assessments, {DRAM: float(budget)}


def _outcome(selector, assessments, budgets):
    """The chosen indices and their summed score, or None on
    ``SelectionError``."""
    score = selector.desirability(SCENARIO_PROBS)
    try:
        chosen = selector.select(assessments, budgets, score)
    except SelectionError:
        return None
    indices = {i for i, a in enumerate(assessments) if any(a is c for c in chosen)}
    assert len(indices) == len(chosen)
    assert validate_selection(assessments, indices, budgets) == []
    return indices, sum(score(assessments[i]) for i in indices)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_instances())
def test_property_selectors_agree_on_infeasibility(instance):
    """Greedy, Optimal and both robust wrappers raise ``SelectionError``
    on exactly the instances where the cheapest member of every required
    group overruns the budget; what they return is valid, and Optimal
    scores at least what Greedy does, within the MILP's gap."""
    assessments, budgets = instance
    groups, _required = group_members(assessments)
    floor = sum(
        min(assessments[i].permanent_cost(DRAM) for i in members)
        for members in groups.values()
    )
    feasible = floor <= budgets[DRAM]
    pairs = [
        (GreedySelector(), OptimalSelector()),
        (
            RobustSelector(GreedySelector(), WORST_CASE),
            RobustSelector(OptimalSelector(), WORST_CASE),
        ),
    ]
    for greedy, optimal in pairs:
        greedy_outcome = _outcome(greedy, assessments, budgets)
        optimal_outcome = _outcome(optimal, assessments, budgets)
        assert (greedy_outcome is not None) is feasible, greedy.name
        assert (optimal_outcome is not None) is feasible, optimal.name
        if feasible:
            greedy_score = greedy_outcome[1]
            optimal_score = optimal_outcome[1]
            gap = MILP_RELATIVE_GAP * max(abs(greedy_score), abs(optimal_score))
            assert optimal_score >= greedy_score - gap - 1e-6, optimal.name
    genetic = _outcome(GeneticSelector(seed=0, generations=10), assessments, budgets)
    assert genetic is None or feasible


@pytest.mark.parametrize(
    "selector",
    [
        GreedySelector(),
        OptimalSelector(),
        RobustSelector(GreedySelector(), WORST_CASE),
        GeneticSelector(seed=0),
    ],
    ids=lambda s: s.name,
)
def test_an_infeasible_pool_proposes_the_current_setting(selector):
    """E1's DRAM-pressed state leaves the buffer pool a negative
    headroom: every selector's proposal is the current setting."""
    suite, constraints = make_dram_pressed_retail()
    tuner = Tuner(
        BufferPoolFeature(), WhatIfOptimizer(suite.database), selector=selector
    )

    result = tuner.propose(make_forecast(suite), constraints)

    assert result.delta.is_empty
    assert result.chosen == []
    assert result.candidate_count > 0
    assert result.infeasible

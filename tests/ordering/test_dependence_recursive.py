"""Tests for dependence measurement and recursive tuning (Section III)."""

import itertools

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.errors import OrderingError
from repro.ordering.dependence import DependenceAnalyzer, DependenceMatrix
from repro.ordering.lp import LPOrderOptimizer
from repro.ordering.recursive import RecursiveTuningPlanner
from repro.tuning import standard_features
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB
from repro.workload import build_retail_suite

from tests.conftest import make_dram_pressed_retail, make_forecast


def _tuners(db):
    optimizer = WhatIfOptimizer(db)
    return [
        Tuner(IndexSelectionFeature(), optimizer),
        Tuner(CompressionFeature(), optimizer),
    ]


def _constraints():
    return ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)])


def test_measure_produces_consistent_matrix(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    analyzer = DependenceAnalyzer(_tuners(db), _constraints())
    before = ConfigurationInstance.capture(db)
    matrix = analyzer.measure(forecast)
    # measurement leaves no trace
    after = ConfigurationInstance.capture(db)
    assert before.indexes == after.indexes
    assert before.encodings == after.encodings

    assert matrix.features == ("compression", "index_selection")
    assert matrix.w_empty > 0
    for feature in matrix.features:
        # tuning never hurts the workload it was tuned for (measured what-if)
        assert matrix.w_single[feature] <= matrix.w_empty * 1.01
        assert matrix.tuning_cost_ms[feature] >= 0
        assert matrix.impact(feature) >= 0.99
    for pair, cost in matrix.w_pair.items():
        # tuning both features is at least as good as the better single one
        assert cost <= min(
            matrix.w_single[pair[0]], matrix.w_single[pair[1]]
        ) * 1.05
    d = matrix.d("compression", "index_selection")
    assert d > 0
    assert matrix.d("index_selection", "compression") == pytest.approx(1.0 / d)


def _straight_line_campaign(db, tuners, constraints, optimizer, forecast):
    """The campaign as two flat loops — every pair re-proposes its first
    stage from the reset baseline. Kept as the reference the nested
    campaign of ``DependenceAnalyzer.measure`` is held against."""
    by_name = {t.feature_name: t for t in tuners}
    names = tuple(sorted(by_name))
    sample_queries = dict(forecast.sample_queries)

    def expected_cost():
        return optimizer.scenario_cost_ms(forecast.expected, sample_queries)

    w_single, w_pair, tuning_cost = {}, {}, {}
    reset = ConfigurationDelta([])
    for tuner in by_name.values():
        reset.extend(tuner.feature.reset_delta(db, forecast))
    with optimizer.hypothetical(reset):
        w_empty = expected_cost()
        for name in names:
            result = by_name[name].propose(forecast, constraints)
            tuning_cost[name] = result.reconfiguration_cost_ms
            with optimizer.hypothetical(result.delta):
                w_single[name] = expected_cost()
        for a, b in itertools.permutations(names, 2):
            result_a = by_name[a].propose(forecast, constraints)
            with optimizer.hypothetical(result_a.delta):
                result_b = by_name[b].propose(forecast, constraints)
                with optimizer.hypothetical(result_b.delta):
                    w_pair[(a, b)] = expected_cost()
    return DependenceMatrix(
        features=names,
        w_empty=w_empty,
        w_single=w_single,
        w_pair=w_pair,
        tuning_cost_ms=tuning_cost,
    )


@pytest.mark.parametrize("seed", [1, 2, 3], ids=lambda s: f"seed {s}")
def test_campaign_equals_the_straight_line_reference(seed, monkeypatch):
    """Proposing each first stage once, and no pair on top of an empty
    one, changes no measured cost: on five features the nested campaign
    returns the matrix of the straight-line one, value for value and in
    the same dict order, from |S|² − e·(|S| − 1) tuning runs instead of
    |S|·(2|S| − 1) for e empty single-stage deltas, and leaves the
    database as it found it."""
    proposals = []
    propose = Tuner.propose

    def counting_propose(self, forecast, constraints=None):
        result = propose(self, forecast, constraints)
        proposals.append(result.is_noop)
        return result

    monkeypatch.setattr(Tuner, "propose", counting_propose)

    def campaign(measure):
        # a fresh suite per run: neither campaign finds the other's caches
        suite = build_retail_suite(
            seed=seed, orders_rows=4_000, inventory_rows=1_000, chunk_size=1_024
        )
        db = suite.database
        optimizer = WhatIfOptimizer(db)
        tuners = [
            Tuner(feature, optimizer)
            for feature in standard_features(include_sort_order=True)
        ]
        forecast = make_forecast(suite)
        before = ConfigurationInstance.capture(db)
        del proposals[:]
        matrix = measure(db, tuners, _constraints(), optimizer, forecast)
        assert ConfigurationInstance.capture(db) == before
        return matrix, list(proposals)

    reference, reference_runs = campaign(_straight_line_campaign)
    matrix, runs = campaign(
        lambda db, tuners, constraints, optimizer, forecast: DependenceAnalyzer(
            tuners, constraints
        ).measure(forecast)
    )
    features = len(matrix.features)
    assert features == 5
    # the straight line proposes every single stage first
    empty = sum(reference_runs[:features])
    assert len(reference_runs) == features * (2 * features - 1)
    assert len(runs) == features**2 - empty * (features - 1)
    assert matrix.w_empty == reference.w_empty
    for measured in ("w_single", "w_pair", "tuning_cost_ms"):
        assert list(getattr(matrix, measured).items()) == list(
            getattr(reference, measured).items()
        ), measured
    order = LPOrderOptimizer().optimize(matrix).order
    assert order == LPOrderOptimizer().optimize(reference).order


def test_an_empty_first_stage_prices_its_pairs_as_a_forced_re_proposal():
    """ROADMAP item 14a on E1's DRAM-pressed state, where the buffer pool
    has no feasible capacity and proposes an empty delta: the campaign
    takes W_{A,B} = W_B for it without proposing B again, and each such
    W_{A,B} equals the cost of re-proposing A and then B on top of it,
    priced on a fresh copy of the database through a fresh cost cache."""

    def stack():
        suite, constraints = make_dram_pressed_retail()
        optimizer = WhatIfOptimizer(suite.database)
        tuners = {
            feature.name: Tuner(feature, optimizer)
            for feature in standard_features(include_sort_order=True)
        }
        return suite, constraints, optimizer, tuners

    suite, constraints, _, tuners = stack()
    matrix = DependenceAnalyzer(list(tuners.values()), constraints).measure(
        make_forecast(suite)
    )

    suite, constraints, optimizer, tuners = stack()
    db = suite.database
    forecast = make_forecast(suite)
    reset = ConfigurationDelta([])
    for tuner in tuners.values():
        reset.extend(tuner.feature.reset_delta(db, forecast))
    forced = {}
    with optimizer.hypothetical(reset):
        for a in matrix.features:
            result_a = tuners[a].propose(forecast, constraints)
            if not result_a.is_noop:
                continue
            with optimizer.hypothetical(result_a.delta):
                for b in matrix.features:
                    if b == a:
                        continue
                    result_b = tuners[b].propose(forecast, constraints)
                    with optimizer.hypothetical(result_b.delta):
                        forced[(a, b)] = optimizer.scenario_cost_ms(
                            forecast.expected, dict(forecast.sample_queries)
                        )
    assert {a for a, _ in forced} == {"buffer_pool"}
    for (a, b), cost in forced.items():
        assert matrix.w_pair[(a, b)] == matrix.w_single[b] == cost


def test_analyzer_requires_two_distinct_features(retail_suite):
    optimizer = WhatIfOptimizer(retail_suite.database)
    one = DependenceAnalyzer([Tuner(IndexSelectionFeature(), optimizer)])
    with pytest.raises(OrderingError):
        one.measure(make_forecast(retail_suite))
    with pytest.raises(OrderingError):
        DependenceAnalyzer(
            [
                Tuner(IndexSelectionFeature(), optimizer),
                Tuner(IndexSelectionFeature(), optimizer),
            ],
        )


@pytest.mark.parametrize("stack", [DependenceAnalyzer, RecursiveTuningPlanner])
def test_tuners_of_one_stack_share_one_optimizer(retail_suite, stack):
    """A planner or an analyzer over tuners that price through two
    what-if optimizers — two cost caches for one database — is refused."""
    db = retail_suite.database
    tuners = [
        Tuner(IndexSelectionFeature(), WhatIfOptimizer(db)),
        Tuner(CompressionFeature(), WhatIfOptimizer(db)),
    ]
    with pytest.raises(OrderingError, match="more than one what-if optimizer"):
        stack(tuners, _constraints())
    stack(_tuners(db), _constraints())  # one shared optimizer is fine


def test_recursive_run_with_explicit_order(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    planner = RecursiveTuningPlanner(_tuners(db), _constraints())
    report = planner.run(forecast, order=("compression", "index_selection"))
    assert report.order == ("compression", "index_selection")
    assert report.final_cost_ms < report.initial_cost_ms
    assert report.improvement > 0.1
    assert len(report.runs) == 2
    # per-feature costs chain together
    assert report.runs[0].cost_before_ms == pytest.approx(report.initial_cost_ms)
    assert report.runs[1].cost_before_ms == pytest.approx(
        report.runs[0].cost_after_ms
    )
    assert report.runs[1].cost_after_ms == pytest.approx(report.final_cost_ms)
    assert report.total_reconfiguration_ms > 0
    # tuning was actually applied to the database
    assert db.index_bytes() > 0


def test_recursive_run_rejects_unknown_features(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    planner = RecursiveTuningPlanner(_tuners(db), _constraints())
    with pytest.raises(OrderingError):
        planner.run(forecast, order=("ghost",))


def test_planner_requires_tuners(retail_suite):
    with pytest.raises(OrderingError):
        RecursiveTuningPlanner([])

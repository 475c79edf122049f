"""Tests for the ordering LP, brute force, branch-and-bound, and heuristics.

The key property: on random dependence matrices the LP, exhaustive search,
and branch-and-bound must agree on the optimal objective, and the LP's model
size must match the formulas stated in the paper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OrderingError
from repro.ordering.branch_bound import BranchAndBoundOrderOptimizer
from repro.ordering.brute_force import BruteForceOrderOptimizer
from repro.ordering.dependence import DependenceMatrix, ordering_objective
from repro.ordering.heuristics import (
    impact_order,
    impact_per_cost_ranking,
    pairwise_heuristic_order,
    random_order,
    top_features_by_impact_per_cost,
)
from repro.ordering.lp import LPOrderOptimizer, model_statistics


def make_matrix(n: int, seed: int = 0, w_empty: float = 100.0) -> DependenceMatrix:
    """A random but internally consistent dependence matrix."""
    rng = np.random.default_rng(seed)
    features = tuple(f"f{i}" for i in range(n))
    w_single = {f: float(w_empty * rng.uniform(0.3, 0.95)) for f in features}
    w_pair = {}
    for a in features:
        for b in features:
            if a != b:
                base = min(w_single[a], w_single[b])
                w_pair[(a, b)] = float(base * rng.uniform(0.55, 1.0))
    tuning_cost = {f: float(rng.uniform(1, 10)) for f in features}
    return DependenceMatrix(
        features=features,
        w_empty=w_empty,
        w_single=w_single,
        w_pair=w_pair,
        tuning_cost_ms=tuning_cost,
    )


def test_model_statistics_formulas():
    # 2|S|^2 - |S| variables, 2|S|^2 constraints (paper, Section III-B)
    assert model_statistics(2) == (6, 8)
    assert model_statistics(3) == (15, 18)
    assert model_statistics(5) == (45, 50)
    assert model_statistics(10) == (190, 200)


def test_dependence_ratio_definition():
    matrix = make_matrix(3, seed=1)
    a, b = "f0", "f1"
    assert matrix.d(a, b) == pytest.approx(
        matrix.w_pair[(b, a)] / matrix.w_pair[(a, b)]
    )
    assert matrix.objective_coefficient(a, b) == pytest.approx(
        matrix.d(a, b) * matrix.w_empty / matrix.w_pair[(a, b)]
    )


def test_impact_definition():
    matrix = make_matrix(3, seed=2)
    assert matrix.impact("f0") == pytest.approx(
        matrix.w_empty / matrix.w_single["f0"]
    )


def test_objective_of_order_counts_preceding_pairs():
    matrix = make_matrix(2, seed=0)
    forward = ordering_objective(matrix, ("f0", "f1"))
    backward = ordering_objective(matrix, ("f1", "f0"))
    assert forward == pytest.approx(matrix.objective_coefficient("f0", "f1"))
    assert backward == pytest.approx(matrix.objective_coefficient("f1", "f0"))


def test_objective_rejects_non_permutations():
    matrix = make_matrix(3)
    with pytest.raises(OrderingError):
        ordering_objective(matrix, ("f0", "f1"))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lp_matches_brute_force(n, seed):
    matrix = make_matrix(n, seed=seed)
    lp = LPOrderOptimizer().optimize(matrix)
    bf = BruteForceOrderOptimizer().optimize(matrix)
    assert lp.objective == pytest.approx(bf.objective)
    assert sorted(lp.order) == sorted(matrix.features)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_branch_and_bound_matches_brute_force(n):
    matrix = make_matrix(n, seed=n)
    bb = BranchAndBoundOrderOptimizer().optimize(matrix)
    bf = BruteForceOrderOptimizer().optimize(matrix)
    assert bb.objective == pytest.approx(bf.objective)


def test_lp_reports_model_size_and_precedence():
    matrix = make_matrix(4, seed=3)
    solution = LPOrderOptimizer().optimize(matrix)
    assert (solution.n_variables, solution.n_constraints) == model_statistics(4)
    position = {f: i for i, f in enumerate(solution.order)}
    for (a, b), value in solution.precedence.items():
        assert value == (1 if position[a] < position[b] else 0)


def test_lp_handles_larger_instances():
    matrix = make_matrix(10, seed=4)
    solution = LPOrderOptimizer().optimize(matrix)
    assert len(solution.order) == 10
    assert solution.solve_seconds < 30


def test_lp_reports_optimal_status():
    solution = LPOrderOptimizer().optimize(make_matrix(3, seed=8))
    assert solution.status == "optimal"


class _FakeResult:
    def __init__(self, x, status, message="fake"):
        self.x = x
        self.status = status
        self.message = message


def test_lp_raises_when_solver_has_no_incumbent(monkeypatch):
    matrix = make_matrix(2, seed=0)
    monkeypatch.setattr(
        "scipy.optimize.milp",
        lambda *a, **k: _FakeResult(x=None, status=2, message="infeasible"),
    )
    with pytest.raises(OrderingError, match="infeasible"):
        LPOrderOptimizer().optimize(matrix)


def test_lp_raises_on_unusable_solver_status(monkeypatch):
    matrix = make_matrix(2, seed=0)
    n_vars = 2 * 2 + 2  # x variables + y variables for |S| = 2
    monkeypatch.setattr(
        "scipy.optimize.milp",
        lambda *a, **k: _FakeResult(
            x=np.zeros(n_vars), status=4, message="numerical trouble"
        ),
    )
    with pytest.raises(OrderingError, match="numerical"):
        LPOrderOptimizer().optimize(matrix)


def test_lp_rejects_fractional_incumbent(monkeypatch):
    matrix = make_matrix(2, seed=0)
    n_vars = 2 * 2 + 2
    monkeypatch.setattr(
        "scipy.optimize.milp",
        lambda *a, **k: _FakeResult(
            x=np.full(n_vars, 0.5), status=1, message="time limit"
        ),
    )
    with pytest.raises(OrderingError, match="fractional"):
        LPOrderOptimizer().optimize(matrix)


def test_single_feature_rejected():
    matrix = DependenceMatrix(
        features=("only",), w_empty=10.0, w_single={"only": 5.0}
    )
    with pytest.raises(OrderingError):
        LPOrderOptimizer().optimize(matrix)
    with pytest.raises(OrderingError):
        BruteForceOrderOptimizer().optimize(matrix)


def test_brute_force_guard_on_large_instances():
    matrix = make_matrix(10, seed=0)
    with pytest.raises(OrderingError):
        BruteForceOrderOptimizer().optimize(matrix)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_property_lp_is_optimal_and_valid(n, seed):
    matrix = make_matrix(n, seed=seed)
    lp = LPOrderOptimizer().optimize(matrix)
    assert sorted(lp.order) == sorted(matrix.features)
    bf = BruteForceOrderOptimizer().optimize(matrix)
    assert lp.objective == pytest.approx(bf.objective)


def test_lp_demands_exact_optimality():
    # Regression: with HiGHS's default 1e-4 relative MIP gap, this
    # instance stops at ('f3','f0','f4','f2','f1') — objective 43.36501,
    # a provable 3.2e-5 short of the true optimum (the last two features
    # swapped). mip_rel_gap=0 must recover the exact order.
    matrix = make_matrix(5, seed=996)
    lp = LPOrderOptimizer().optimize(matrix)
    bf = BruteForceOrderOptimizer().optimize(matrix)
    assert lp.objective == pytest.approx(bf.objective)
    assert lp.order == bf.order


# ----------------------------------------------------------------------
# heuristics


def test_random_order_is_permutation_and_seeded():
    matrix = make_matrix(5)
    a = random_order(matrix, seed=1)
    b = random_order(matrix, seed=1)
    c = random_order(matrix, seed=2)
    assert a == b
    assert sorted(a) == sorted(matrix.features)
    assert a != c or n_trials_differ(matrix)


def n_trials_differ(matrix):
    # extremely unlikely fallback for identical shuffles
    return False


def test_impact_order_sorts_by_single_feature_gain():
    matrix = make_matrix(4, seed=5)
    order = impact_order(matrix)
    impacts = [matrix.impact(f) for f in order]
    assert impacts == sorted(impacts, reverse=True)


def test_impact_per_cost_ranking_and_subset():
    matrix = make_matrix(4, seed=6)
    ranking = impact_per_cost_ranking(matrix)
    scores = [score for _f, score in ranking]
    assert scores == sorted(scores, reverse=True)
    # a budget large enough for everything selects everything
    total = sum(matrix.tuning_cost_ms.values())
    assert set(top_features_by_impact_per_cost(matrix, total)) == set(
        matrix.features
    )
    # zero budget selects nothing
    assert top_features_by_impact_per_cost(matrix, 0.0) == []


def test_pairwise_heuristic_is_permutation():
    matrix = make_matrix(5, seed=7)
    order = pairwise_heuristic_order(matrix)
    assert sorted(order) == sorted(matrix.features)


def test_lp_at_least_as_good_as_heuristics():
    for seed in range(5):
        matrix = make_matrix(5, seed=seed)
        lp = LPOrderOptimizer().optimize(matrix)
        for heuristic in (
            random_order(matrix, seed),
            impact_order(matrix),
            pairwise_heuristic_order(matrix),
        ):
            assert lp.objective >= ordering_objective(matrix, heuristic) - 1e-9

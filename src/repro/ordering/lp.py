"""The integer LP of Section III-B, exactly as formulated in the paper.

Binary variables:

- ``x_{A,k}`` — feature A is tuned in step k (k = 1..|S|);
- ``y_{A,B}`` — feature A is tuned before feature B.

Objective::

    maximize  Σ_{A,B∈S, A≠B}  y_{A,B} · d_{A,B} · W_∅ / W_{A,B}

Constraints::

    Σ_k x_{A,k} = 1                         ∀ A          (one step each)
    Σ_A x_{A,k} = 1                         ∀ k          (one feature each)
    y_{A,B} + y_{B,A} = 1                   ∀ A ≠ B      (total order)
    |S|·y_{A,B} ≥ Σ_k k·x_{B,k} − Σ_k k·x_{A,k}   ∀ A ≠ B (coupling)

Model size, as stated in the paper: ``2·|S|² − |S|`` variables and
``2·|S|²`` constraints (the per-ordered-pair count; the solver receives the
deduplicated equivalent). Solved by HiGHS through
:func:`scipy.optimize.milp`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import OrderingError
from repro.ordering.dependence import DependenceMatrix, ordering_objective


def model_statistics(n_features: int) -> tuple[int, int]:
    """(variables, constraints) as counted in the paper."""
    n = n_features
    return 2 * n * n - n, 2 * n * n


#: scipy.optimize.milp status codes → human-readable solver outcome
_MILP_STATUS = {
    0: "optimal",
    1: "time_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}


@dataclass(frozen=True)
class OrderingSolution:
    """An optimized tuning order plus solve diagnostics."""

    order: tuple[str, ...]
    objective: float
    n_variables: int
    n_constraints: int
    solver: str
    solve_seconds: float
    #: the y_{A,B} values at the optimum
    precedence: dict[tuple[str, str], int]
    #: solver outcome: "optimal", or "time_limit" for a feasible incumbent
    status: str = "optimal"


class LPOrderOptimizer:
    """Solves the paper's integer LP with an off-the-shelf MILP solver.

    The model adds the standard linear-ordering transitivity cuts
    ``y_AB + y_BC + y_CA ≤ 2`` on top of the paper's formulation. They do
    not change the feasible integer set (the x/y coupling already forces a
    total order) but strengthen the relaxation
    enough that instances beyond |S| ≈ 9 solve in seconds instead of
    minutes — the "large problem instances" of Section V. The reported
    model statistics always describe the paper's base formulation.
    """

    name = "lp"

    def __init__(self, time_limit_s: float | None = None) -> None:
        self._time_limit_s = time_limit_s

    def optimize(self, matrix: DependenceMatrix) -> OrderingSolution:
        # imported where the LP is solved: scipy.optimize is most of the
        # package's import time and a run that never tunes never needs it
        from scipy.optimize import LinearConstraint, milp

        features = matrix.features
        n = len(features)
        if n < 2:
            raise OrderingError("ordering needs at least two features")
        index_of = {name: i for i, name in enumerate(features)}
        pairs = [(a, b) for a in features for b in features if a != b]

        # variable layout: x_{A,k} at A*n + k, then y_{A,B} appended
        n_x = n * n
        y_offset = {pair: n_x + i for i, pair in enumerate(pairs)}
        n_vars = n_x + len(pairs)

        objective = np.zeros(n_vars)
        for a, b in pairs:
            objective[y_offset[(a, b)]] = -matrix.objective_coefficient(a, b)

        constraints: list[LinearConstraint] = []

        # each feature gets exactly one step
        for a in features:
            row = np.zeros(n_vars)
            for k in range(n):
                row[index_of[a] * n + k] = 1.0
            constraints.append(LinearConstraint(row, 1.0, 1.0))

        # each step gets exactly one feature
        for k in range(n):
            row = np.zeros(n_vars)
            for a in features:
                row[index_of[a] * n + k] = 1.0
            constraints.append(LinearConstraint(row, 1.0, 1.0))

        # y_{A,B} + y_{B,A} = 1 (one row per unordered pair; the paper
        # counts this family once per ordered pair)
        seen: set[frozenset[str]] = set()
        for a, b in pairs:
            key = frozenset((a, b))
            if key in seen:
                continue
            seen.add(key)
            row = np.zeros(n_vars)
            row[y_offset[(a, b)]] = 1.0
            row[y_offset[(b, a)]] = 1.0
            constraints.append(LinearConstraint(row, 1.0, 1.0))

        # |S|·y_{A,B} − Σ_k k·x_{B,k} + Σ_k k·x_{A,k} ≥ 0
        for a, b in pairs:
            row = np.zeros(n_vars)
            row[y_offset[(a, b)]] = float(n)
            for k in range(n):
                step = float(k + 1)  # the paper's k runs from 1 to |S|
                row[index_of[b] * n + k] -= step
                row[index_of[a] * n + k] += step
            constraints.append(LinearConstraint(row, 0.0, np.inf))

        # transitivity cuts: y_AB + y_BC + y_CA ≤ 2 for distinct A,B,C
        for a in features:
            for b in features:
                for c in features:
                    if len({a, b, c}) != 3:
                        continue
                    row = np.zeros(n_vars)
                    row[y_offset[(a, b)]] = 1.0
                    row[y_offset[(b, c)]] = 1.0
                    row[y_offset[(c, a)]] = 1.0
                    constraints.append(LinearConstraint(row, -np.inf, 2.0))

        # HiGHS's default relative MIP gap (1e-4) lets it declare an
        # incumbent "optimal" while a strictly better order exists — close
        # coefficients make that a *different* tuning order, not just a
        # slightly-off objective. The models here are tiny; demand proof.
        options: dict[str, float] = {"mip_rel_gap": 0.0}
        if self._time_limit_s is not None:
            options["time_limit"] = self._time_limit_s
        started = time.perf_counter()
        result = milp(
            c=objective,
            integrality=np.ones(n_vars),
            bounds=(0, 1),
            constraints=constraints,
            options=options,
        )
        elapsed = time.perf_counter() - started
        # On a time limit HiGHS may still carry a feasible incumbent; use
        # it — but only if it exists, is from a usable solver outcome, and
        # is actually integral (a fractional relaxation point is not a
        # tuning order).
        status = _MILP_STATUS.get(result.status, f"unknown({result.status})")
        if result.x is None:
            raise OrderingError(
                f"ordering LP failed ({status}): {result.message}; "
                "no feasible incumbent available"
            )
        if result.status not in (0, 1):
            raise OrderingError(
                f"ordering LP failed ({status}): {result.message}"
            )
        solution = result.x
        if np.abs(solution - np.round(solution)).max() > 1e-6:
            raise OrderingError(
                f"ordering LP returned a fractional incumbent ({status}); "
                "increase the time limit to obtain an integral order"
            )
        order: list[str | None] = [None] * n
        for a in features:
            for k in range(n):
                if solution[index_of[a] * n + k] > 0.5:
                    if order[k] is not None:
                        raise OrderingError(
                            f"LP assigned two features to step {k + 1}"
                        )
                    order[k] = a
        if any(slot is None for slot in order):
            raise OrderingError("LP left a tuning step unassigned")
        final_order = tuple(order)  # type: ignore[arg-type]

        precedence = {
            (a, b): int(round(solution[y_offset[(a, b)]])) for a, b in pairs
        }
        n_variables, n_constraints = model_statistics(n)
        return OrderingSolution(
            order=final_order,
            objective=ordering_objective(matrix, final_order),
            n_variables=n_variables,
            n_constraints=n_constraints,
            solver="scipy-milp/HiGHS",
            solve_seconds=elapsed,
            precedence=precedence,
            status=status,
        )

"""The optimal selector: an exact 0/1 program solved by an off-the-shelf
MILP solver.

"Optimal selectors find optimal configurations (e.g., Dash et al. [19]) …
usually based on off-the-shelf solvers that are heavily optimized for such
a task. Optimal selectors might lead to long runtimes" (Section II-D.c).
The model is a multi-dimensional knapsack with generalized upper bound
(group) constraints, solved by HiGHS through :func:`scipy.optimize.milp`.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import SelectionError
from repro.tuning.assessment import Assessment
from repro.tuning.selectors.base import (
    ScoreFn,
    Selector,
    budget_violations,
    group_members,
    over_budget,
)


class OptimalSelector(Selector):
    """Exact selection via mixed-integer linear programming."""

    name = "optimal"

    def select(
        self,
        assessments: list[Assessment],
        budgets: Mapping[str, float],
        score: ScoreFn,
    ) -> list[Assessment]:
        if not assessments:
            # the empty selection is the only one
            if violations := budget_violations(dict.fromkeys(budgets, 0.0), budgets):
                raise over_budget("the empty selection", violations)
            return []
        # imported where the program is solved (see ordering/lp.py)
        from scipy.optimize import LinearConstraint, milp

        n = len(assessments)
        scores = np.array([score(a) for a in assessments])

        constraints: list[LinearConstraint] = []
        for resource, limit in budgets.items():
            coefficients = np.array(
                [a.permanent_cost(resource) for a in assessments]
            )
            if np.any(coefficients != 0) or limit < 0:
                constraints.append(
                    LinearConstraint(coefficients, -np.inf, limit)
                )

        groups, required = group_members(assessments)
        for group, members in groups.items():
            row = np.zeros(n)
            row[members] = 1.0
            lower = 1.0 if group in required else 0.0
            constraints.append(LinearConstraint(row, lower, 1.0))

        result = milp(
            c=-scores,  # milp minimises
            integrality=np.ones(n),
            bounds=(0, 1),
            constraints=constraints or None,
        )
        if not result.success or result.x is None:
            raise SelectionError(
                f"MILP selection failed: {result.message}"
            )
        chosen = {i for i in range(n) if result.x[i] > 0.5}

        # Unselected positive-score free candidates can only happen through
        # solver tolerance; selected negative-score ungrouped candidates
        # cannot improve the objective — drop them defensively.
        for i in list(chosen):
            a = assessments[i]
            if (
                a.candidate.group is None
                and scores[i] < 0
                and all(a.permanent_cost(r) >= 0 for r in budgets)
            ):
                chosen.discard(i)
        return [assessments[i] for i in sorted(chosen)]

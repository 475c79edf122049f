"""The greedy selector: desirability per cost, then budget repair.

"The greedy selector chooses candidates based on the desirability per cost,
choosing the candidates with the highest ratio first and proceeding until
the constraint is violated. The strength of the greedy selector is its
short runtime" (Section II-D.c, cf. [16], [17] for indexes and [18] for
data tiering).

Required exclusion groups (encodings, placements, knobs) are seeded with
their best-scoring member; if budgets are then violated — e.g. a DRAM
budget smaller than the all-DRAM placement — a repair loop downgrades the
group choices with the smallest score loss per byte freed, which is exactly
the greedy eviction strategy of tiering systems.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import SelectionError
from repro.tuning.assessment import Assessment
from repro.tuning.selectors.base import (
    ScoreFn,
    Selector,
    budget_violations,
    fits,
    group_members,
    over_budget,
    resource_usage,
)


class GreedySelector(Selector):
    """Ratio-greedy selection with group seeding and budget repair."""

    name = "greedy"

    def select(
        self,
        assessments: list[Assessment],
        budgets: Mapping[str, float],
        score: ScoreFn,
    ) -> list[Assessment]:
        scores = [score(a) for a in assessments]
        groups, required = group_members(assessments)
        resources = list(budgets)
        chosen: set[int] = set()
        group_of: dict[str, int] = {}

        # 1. Seed every required group with its best-scoring member.
        for group in sorted(required):
            best = max(groups[group], key=lambda i: scores[i])
            chosen.add(best)
            group_of[group] = best

        # 2. Forward pass over ungrouped/optional candidates by ratio.
        optional = [
            i
            for i, a in enumerate(assessments)
            if a.candidate.group is None or not a.candidate.group_required
        ]

        def ratio_key(i: int) -> tuple[int, float]:
            cost = sum(
                max(assessments[i].permanent_cost(r), 0.0) for r in resources
            )
            if cost <= 0:
                return (0, -scores[i])  # free candidates first, best score
            return (1, -scores[i] / cost)

        usage = resource_usage(assessments, chosen, resources)
        for i in sorted(optional, key=ratio_key):
            if scores[i] <= 0:
                continue
            group = assessments[i].candidate.group
            if group is not None and group in group_of:
                continue
            if not fits(assessments[i], usage, budgets):
                continue
            chosen.add(i)
            if group is not None:
                group_of[group] = i
            for r in resources:
                usage[r] += assessments[i].permanent_cost(r)

        # 3. Repair: downgrade group choices / drop optional picks until
        #    every budget holds.
        for _ in range(len(assessments) * 2 + 1):
            usage = resource_usage(assessments, chosen, resources)
            violations = budget_violations(usage, budgets)
            if not violations:
                break
            best_move: tuple[float, str, int, int | None] | None = None
            for group in required:
                current = group_of[group]
                for alternative in groups[group]:
                    if alternative == current:
                        continue
                    freed = sum(
                        min(
                            excess,
                            assessments[current].permanent_cost(r)
                            - assessments[alternative].permanent_cost(r),
                        )
                        / excess
                        for r, excess in violations.items()
                    )
                    if freed <= 1e-12:
                        continue
                    loss = scores[current] - scores[alternative]
                    move = (loss / freed, group, current, alternative)
                    if best_move is None or move[0] < best_move[0]:
                        best_move = move
            for i in list(chosen):
                candidate = assessments[i].candidate
                if candidate.group in required:
                    continue
                freed = sum(
                    min(excess, assessments[i].permanent_cost(r)) / excess
                    for r, excess in violations.items()
                )
                if freed <= 1e-12:
                    continue
                move = (scores[i] / freed, "", i, None)
                if best_move is None or move[0] < best_move[0]:
                    best_move = move
            if best_move is None:
                raise over_budget("greedy repair", violations)
            _penalty, group, removed, added = best_move
            chosen.discard(removed)
            if added is not None:
                chosen.add(added)
                group_of[group] = added
            else:
                candidate_group = assessments[removed].candidate.group
                if candidate_group is not None:
                    group_of.pop(candidate_group, None)
        else:
            raise SelectionError("greedy repair did not converge")

        return [assessments[i] for i in sorted(chosen)]

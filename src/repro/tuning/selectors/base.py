"""Selector interface and shared selection mechanics.

"A selector chooses candidates based on the previous assessments and
specified constraints, e.g., a memory budget for indexes" (Section II-D.c).

The selection problem all selectors solve:

- maximise the summed score of chosen assessments, under the one score
  the tuner hands in (the selector's desirability criterion minus the
  weighted one-time cost, built once in ``Tuner.propose``);
- subject to resource budgets: the summed permanent costs per resource must
  not exceed the given (possibly negative) budget — budgets are *relative
  to the feature's reset baseline*, matching how assessors measure costs;
- subject to exclusion groups: at most one member per group, exactly one
  for required groups.

A selector that finds no feasible selection raises
:class:`~repro.errors.SelectionError` and nothing else does; the tuner
answers it with the current setting (an empty delta).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping

from repro.errors import SelectionError
from repro.tuning.assessment import Assessment

ScoreFn = Callable[[Assessment], float]


def group_members(
    assessments: list[Assessment],
) -> tuple[dict[str, list[int]], set[str]]:
    """Map group name → member indices; also the set of required groups."""
    groups: dict[str, list[int]] = {}
    required: set[str] = set()
    for i, assessment in enumerate(assessments):
        group = assessment.candidate.group
        if group is None:
            continue
        groups.setdefault(group, []).append(i)
        if assessment.candidate.group_required:
            required.add(group)
    return groups, required


def resource_usage(
    assessments: list[Assessment], chosen: set[int], resources: list[str]
) -> dict[str, float]:
    usage = {resource: 0.0 for resource in resources}
    for i in chosen:
        for resource in resources:
            usage[resource] += assessments[i].permanent_cost(resource)
    return usage


def budget_violations(
    usage: Mapping[str, float], budgets: Mapping[str, float]
) -> dict[str, float]:
    """Resource → excess amount for every violated budget."""
    return {
        resource: usage[resource] - limit
        for resource, limit in budgets.items()
        if usage.get(resource, 0.0) > limit + 1e-6
    }


def over_budget(what: str, violations: Mapping[str, float]) -> SelectionError:
    """The one answer for "no feasible selection", naming every excess."""
    return SelectionError(
        f"{what} cannot satisfy budgets: "
        + ", ".join(f"{r} over by {e:.0f}" for r, e in violations.items())
    )


def fits(
    assessment: Assessment,
    usage: Mapping[str, float],
    budgets: Mapping[str, float],
) -> bool:
    """Whether adding ``assessment`` to a selection that uses ``usage``
    keeps every budget."""
    return not budget_violations(
        {r: usage.get(r, 0.0) + assessment.permanent_cost(r) for r in budgets},
        budgets,
    )


def validate_selection(
    assessments: list[Assessment],
    chosen: set[int],
    budgets: Mapping[str, float],
) -> list[str]:
    """Violation strings for a final selection (empty when feasible)."""
    problems: list[str] = []
    usage = resource_usage(assessments, chosen, list(budgets))
    for resource, excess in budget_violations(usage, budgets).items():
        problems.append(f"{resource} over budget by {excess:.0f}")
    groups, required = group_members(assessments)
    for group, members in groups.items():
        count = sum(1 for i in members if i in chosen)
        if count > 1:
            problems.append(f"group {group!r} has {count} selected members")
        if group in required and count == 0:
            problems.append(f"required group {group!r} has no selected member")
    return problems


class Selector(ABC):
    """Chooses a feasible subset of assessed candidates."""

    name: str = "selector"

    def desirability(self, probabilities: Mapping[str, float]) -> ScoreFn:
        """The selection criterion: probability-weighted desirability.
        Risk-averse selectors override it (see ``RobustSelector``)."""
        return lambda a: a.expected(probabilities)

    @abstractmethod
    def select(
        self,
        assessments: list[Assessment],
        budgets: Mapping[str, float],
        score: ScoreFn,
    ) -> list[Assessment]:
        """Return the chosen assessments (a feasible subset) maximising
        the summed ``score``; raise ``SelectionError`` when none exists."""

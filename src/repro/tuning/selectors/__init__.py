"""Selectors: greedy, optimal (MILP), genetic, and robust/risk-averse."""

from repro.tuning.selectors.base import (
    ScoreFn,
    Selector,
    budget_violations,
    group_members,
    resource_usage,
    validate_selection,
)
from repro.tuning.selectors.genetic import GeneticSelector
from repro.tuning.selectors.greedy import GreedySelector
from repro.tuning.selectors.optimal import OptimalSelector
from repro.tuning.selectors.reassessing import ReassessingGreedySelector
from repro.tuning.selectors.robust import (
    CRITERIA,
    MEAN_VARIANCE,
    VALUE_AT_RISK,
    WORST_CASE,
    RobustSelector,
    value_at_risk,
)

__all__ = [
    "CRITERIA",
    "GeneticSelector",
    "GreedySelector",
    "MEAN_VARIANCE",
    "OptimalSelector",
    "ReassessingGreedySelector",
    "RobustSelector",
    "ScoreFn",
    "Selector",
    "VALUE_AT_RISK",
    "WORST_CASE",
    "budget_violations",
    "group_members",
    "resource_usage",
    "validate_selection",
    "value_at_risk",
]

"""The unified physical-plan layer.

One :class:`~repro.plan.planner.QueryPlanner` compiles ``(query,
table)`` into a :class:`~repro.plan.ir.PhysicalPlan` that the query
executor executes, the physical cost model prices, and the what-if
optimizer's probe path reuses — see :doc:`docs/planner` for the
lifecycle.
"""

from repro.plan.ir import PRUNE_CHECK_UNITS, PhysicalPlan, PlanStep, StepKind
from repro.plan.planner import DEFAULT_PLAN_CACHE_SIZE, QueryPlanner

__all__ = [
    "DEFAULT_PLAN_CACHE_SIZE",
    "PRUNE_CHECK_UNITS",
    "PhysicalPlan",
    "PlanStep",
    "QueryPlanner",
    "StepKind",
]

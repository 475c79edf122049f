"""Goal-driven policy planning: declarative objectives compiled into
multi-feature reconfiguration plans (see docs/policy.md)."""

from repro.policy.engine import (
    POLICY_TRIGGER,
    ObjectiveViolationTrigger,
    PlanAlternative,
    PlanStep,
    PolicyEngine,
    PolicyPlanReport,
)
from repro.policy.objectives import (
    LatencyObjective,
    MemoryBudgetObjective,
    Objective,
    ObjectiveStatus,
    PlanMetrics,
    Policy,
    PolicyAssessment,
    ThroughputObjective,
    TriggerObjective,
)

__all__ = [
    "LatencyObjective",
    "MemoryBudgetObjective",
    "Objective",
    "ObjectiveStatus",
    "ObjectiveViolationTrigger",
    "POLICY_TRIGGER",
    "PlanAlternative",
    "PlanMetrics",
    "PlanStep",
    "Policy",
    "PolicyAssessment",
    "PolicyEngine",
    "PolicyPlanReport",
    "ThroughputObjective",
    "TriggerObjective",
]

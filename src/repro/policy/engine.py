"""The policy engine: compile objectives into reconfiguration plans.

The engine is the planner the reactive loop never had. A pass through it
has three stages, driven by the organizer (see
``Organizer.run_policy_pass``):

1. **plan-propose** (:meth:`PolicyEngine.propose_steps`): walk the
   LP-ordered admitted features and let each feature's tuner propose
   against the hypothetical state its predecessors would leave behind —
   one ``Tuner.propose`` per feature, the same enumeration cost as a
   reactive pass, but *nothing is applied yet*.
2. **plan-evaluate** (:meth:`PolicyEngine.evaluate_plans`): plan
   alternatives are the prefixes of the proposed step chain. Each
   alternative's combined delta is applied hypothetically once and
   priced over every forecast scenario through the batched what-if APIs
   (``scenario_cost_ms`` → ``batch_query_costs``), plus exact
   hypothetical memory accounting; the policy predicts each objective
   against those :class:`~repro.policy.objectives.PlanMetrics`. The
   chosen plan is the feasible alternative with the fewest features
   (ties: best weighted score), or the closest-scoring one when none is
   feasible.
3. **plan-execute**: the organizer hands the chosen steps to
   ``RecursiveTuningPlanner.run(proposals=...)``, which applies them
   verbatim through the failure-aware executor and puts the commit on
   guard probation like any other pass.

:class:`ObjectiveViolationTrigger` is the generalized trigger: it fires
when the declared objectives are violated for ``violation_patience``
consecutive evaluations, making the reactive triggers (wrapped as
:class:`~repro.policy.objectives.TriggerObjective`) degenerate policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.configuration.constraints import ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.core.triggers import TriggerContext, TuningTrigger
from repro.cost.what_if import WhatIfOptimizer
from repro.kpi.metrics import (
    POLICY_EVALUATIONS,
    POLICY_PLANS_EVALUATED,
    POLICY_PLANS_EXECUTED,
    POLICY_PLANS_INFEASIBLE,
    POLICY_REPLANS,
    POLICY_STEPS_PROPOSED,
    POLICY_VIOLATIONS,
)
from repro.policy.objectives import (
    ObjectiveStatus,
    PlanMetrics,
    Policy,
    PolicyAssessment,
)
from repro.telemetry.metrics import MetricRegistry
from repro.tuning.tuner import Tuner, TuningResult

if TYPE_CHECKING:
    from repro.dbms.database import Database
    from repro.forecasting.scenarios import Forecast

#: trigger name of objective-violation (policy) passes
POLICY_TRIGGER = "objective_violation"


@dataclass(frozen=True)
class PlanStep:
    """One feature's proposed (not yet applied) tuning within a plan."""

    feature: str
    result: TuningResult


@dataclass
class PlanAlternative:
    """One candidate plan: a prefix of the proposed step chain, priced."""

    plan_id: int
    steps: tuple[PlanStep, ...]
    metrics: PlanMetrics
    statuses: tuple[ObjectiveStatus, ...]
    feasible: bool
    #: weighted objective-margin composite (higher is better)
    score: float

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(step.feature for step in self.steps)

    @property
    def action_count(self) -> int:
        return sum(len(step.result.delta.actions) for step in self.steps)


@dataclass
class PolicyPlanReport:
    """Everything one plan-propose / plan-evaluate round produced."""

    steps: tuple[PlanStep, ...]
    alternatives: list[PlanAlternative] = field(default_factory=list)
    chosen: PlanAlternative | None = None
    #: probability-weighted workload cost under the current configuration
    baseline_cost_ms: float = 0.0
    baseline_scenario_costs: dict[str, float] = field(default_factory=dict)


class PolicyEngine:
    """Objective assessment plus plan proposal/evaluation for one tenant."""

    def __init__(self, policy: Policy, registry: MetricRegistry) -> None:
        # the organizer passes its telemetry registry, so the policy_*
        # counters land in interval KPIs and fleet rollups
        self._policy = policy
        self._registry = registry

    # ------------------------------------------------------------------

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def registry(self) -> MetricRegistry:
        return self._registry

    def _inc(self, name: str, amount: float = 1.0) -> None:
        self._registry.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # objective-violation evaluation (the generalized trigger condition)

    def assess(self, context: TriggerContext) -> PolicyAssessment:
        """Judge the observed state against the declared objectives."""
        assessment = self._policy.assess(context)
        self._inc(POLICY_EVALUATIONS)
        if not assessment.satisfied:
            self._inc(POLICY_VIOLATIONS)
        return assessment

    # ------------------------------------------------------------------
    # plan-propose

    def propose_steps(
        self,
        tuners: Mapping[str, Tuner],
        order: Sequence[str],
        forecast: "Forecast",
        constraints: ConstraintSet,
        optimizer: WhatIfOptimizer,
    ) -> tuple[PlanStep, ...]:
        """Propose one step per feature along ``order``, applying nothing.

        Each tuner proposes under a hypothetical application of the
        accumulated predecessor deltas — the same
        "tune against the state your predecessors left behind" semantics
        the recursive planner executes with, so the chosen prefix can be
        run verbatim later. No-op proposals are dropped from the chain.
        """
        steps: list[PlanStep] = []
        # empty before the first step, where its hypothetical is the identity
        accumulated = ConfigurationDelta([])
        for name in order:
            with optimizer.hypothetical(accumulated):
                result = tuners[name].propose(forecast, constraints)
            if result.is_noop:
                continue
            steps.append(PlanStep(feature=name, result=result))
            accumulated.extend(result.delta)
        self._inc(POLICY_STEPS_PROPOSED, float(len(steps)))
        return tuple(steps)

    # ------------------------------------------------------------------
    # plan-evaluate

    def evaluate_plans(
        self,
        steps: Sequence[PlanStep],
        forecast: "Forecast",
        optimizer: WhatIfOptimizer,
        db: "Database",
        context: TriggerContext,
    ) -> PolicyPlanReport:
        """Price the plan prefixes and pick the best against the policy."""
        baseline_costs = optimizer.forecast_costs(forecast)
        probabilities = {
            s.name: s.probability for s in forecast.scenarios
        }
        baseline = sum(
            probabilities[name] * cost
            for name, cost in baseline_costs.items()
        )
        report = PolicyPlanReport(
            steps=tuple(steps),
            baseline_cost_ms=baseline,
            baseline_scenario_costs=baseline_costs,
        )
        prefix_count = min(len(steps), self._policy.max_alternatives)
        for k in range(1, prefix_count + 1):
            prefix = tuple(steps[:k])
            actions = [
                action
                for step in prefix
                for action in step.result.delta.actions
            ]
            with optimizer.hypothetical(ConfigurationDelta(actions)):
                scenario_costs = optimizer.forecast_costs(forecast)
                memory = float(db.memory_bytes())
                index = float(db.index_bytes())
            expected = sum(
                probabilities[name] * cost
                for name, cost in scenario_costs.items()
            )
            metrics = PlanMetrics(
                expected_cost_ms=expected,
                baseline_cost_ms=baseline,
                scenario_costs=scenario_costs,
                memory_bytes=memory,
                index_bytes=index,
                reconfiguration_ms=sum(
                    step.result.reconfiguration_cost_ms for step in prefix
                ),
            )
            assessment = self._policy.predict(metrics, context)
            report.alternatives.append(
                PlanAlternative(
                    plan_id=k,
                    steps=prefix,
                    metrics=metrics,
                    statuses=assessment.statuses,
                    feasible=assessment.satisfied,
                    score=assessment.score,
                )
            )
        self._inc(POLICY_PLANS_EVALUATED, float(len(report.alternatives)))
        report.chosen = self._choose(report.alternatives)
        return report

    @staticmethod
    def _choose(
        alternatives: list[PlanAlternative],
    ) -> PlanAlternative | None:
        if not alternatives:
            return None
        feasible = [alt for alt in alternatives if alt.feasible]
        if feasible:
            # fewest features that meet every objective; ties by score
            return min(feasible, key=lambda alt: (len(alt.steps), -alt.score))
        # nothing meets all objectives: least-bad weighted composite
        return max(alternatives, key=lambda alt: alt.score)

    # ------------------------------------------------------------------
    # execution bookkeeping (the organizer applies the plan)

    def note_executed(self, plan: PlanAlternative) -> None:
        self._inc(POLICY_PLANS_EXECUTED)
        if not plan.feasible:
            self._inc(POLICY_PLANS_INFEASIBLE)

    def note_replan(self) -> None:
        """A forecast-miss escalation chose to re-plan (not re-tune)."""
        self._inc(POLICY_REPLANS)


class ObjectiveViolationTrigger(TuningTrigger):
    """Fires when declared objectives stay violated past the patience.

    The policy generalization of :class:`~repro.core.triggers
    .TuningTrigger`: where reactive triggers hard-code their condition,
    this one evaluates whatever objectives the policy declares. It is
    deliberately *not* urgent — in a fleet, policy passes are arbitrated
    like any other pass (only SLA breaches bypass the admission cap).
    """

    name = POLICY_TRIGGER

    def __init__(self, engine: PolicyEngine) -> None:
        self._engine = engine
        self._patience = engine.policy.violation_patience
        self._streak = 0

    def evaluate(self, context: TriggerContext) -> "TriggerDecision":
        assessment = self._engine.assess(context)
        details = assessment.details()
        if assessment.satisfied:
            self._streak = 0
            return self._no("all declared objectives satisfied", **details)
        self._streak += 1
        if self._streak < self._patience:
            return self._no(
                f"objectives violated for {self._streak}/{self._patience} "
                "evaluations",
                **details,
            )
        worst = assessment.violated[0]
        return self._yes(
            f"objective {worst.name!r} violated: {worst.detail}",
            **details,
        )


if TYPE_CHECKING:
    from repro.core.triggers import TriggerDecision  # noqa: F401

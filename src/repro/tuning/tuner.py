"""The Tuner: the multi-step pipeline Enumerator → Assessor → Selector →
Executor of Section II-D.

Each stage is an exchangeable component: the feature supplies defaults, the
constructor overrides them per run, which is how the framework "simplifies
… experiments of new approaches since components can be exchanged
effortlessly" (Section II-A). A phase is timed by its telemetry span
(``enumerate`` / ``assess`` / ``select`` / ``execute``), not in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configuration.constraints import ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.errors import SelectionError, TuningAbortedError
from repro.forecasting.scenarios import Forecast
from repro.telemetry import Telemetry, Tracer
from repro.tuning.assessment import Assessment
from repro.tuning.assessors.base import Assessor
from repro.tuning.enumerators.base import Enumerator
from repro.tuning.executors.sequential import ApplicationReport, SequentialExecutor
from repro.tuning.features.base import FeatureTuner
from repro.tuning.selectors.base import Selector, validate_selection


@dataclass
class TuningResult:
    """Outcome of one tuning run for one feature (before application)."""

    feature: str
    assessments: list[Assessment]
    chosen: list[Assessment]
    delta: ConfigurationDelta
    #: additive per-scenario benefit prediction of the chosen set
    predicted_desirability: dict[str, float] = field(default_factory=dict)
    #: probability-weighted predicted benefit over the forecast horizon
    predicted_benefit_ms: float = 0.0
    #: estimated one-time cost of applying the delta
    reconfiguration_cost_ms: float = 0.0
    candidate_count: int = 0
    selector_name: str = ""
    #: why no candidate set fits the budgets and groups ("" when one
    #: does); the delta is then empty and the feature keeps its setting
    infeasible: str = ""

    @property
    def is_noop(self) -> bool:
        return self.delta.is_empty


class Tuner:
    """Runs the tuning pipeline for one feature."""

    def __init__(
        self,
        feature: FeatureTuner,
        optimizer: WhatIfOptimizer,
        enumerator: Enumerator | None = None,
        assessor: Assessor | None = None,
        selector: Selector | None = None,
        reconfiguration_weight: float = 0.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        """``optimizer`` is the stack's one what-if optimizer: the tuner
        tunes its database, the feature's default assessor prices through
        it, and a planner over several tuners requires them to share it.
        ``reconfiguration_weight`` expresses how heavily one-time costs
        count against the recurring benefit (Section II-D.b's mechanism
        for finding minimally invasive changes): a candidate scores the
        selector's desirability minus the weight times its one-time cost.
        0 ignores one-time costs; 1 treats one application as costly as
        one forecast horizon of benefit.
        ``telemetry`` (the driver's shared spine) adds
        enumerate/assess/select/execute phase spans around the pipeline
        stages."""
        self._feature = feature
        self._optimizer = optimizer
        # kept, not read off the optimizer on every call
        self._db = optimizer.database
        self._enumerator = enumerator or feature.make_enumerator()
        self._assessor = assessor or feature.make_assessor(optimizer)
        self._selector = selector or feature.make_selector()
        self._reconfiguration_weight = reconfiguration_weight
        self._tracer: Tracer = (
            telemetry.tracer if telemetry is not None else Tracer()
        )

    @property
    def feature(self) -> FeatureTuner:
        return self._feature

    @property
    def optimizer(self) -> WhatIfOptimizer:
        return self._optimizer

    @property
    def feature_name(self) -> str:
        return self._feature.name

    def propose(
        self,
        forecast: Forecast,
        constraints: ConstraintSet | None = None,
    ) -> TuningResult:
        """Run enumerate → assess → select; returns a plan, applies nothing.

        A selector that finds no feasible selection (``SelectionError``)
        proposes the current setting: an empty delta, with the reason in
        ``TuningResult.infeasible`` and on the ``select`` span.
        """
        db = self._db
        constraints = constraints or ConstraintSet()

        with self._tracer.span("enumerate") as span:
            candidates = self._enumerator.candidates(db, forecast)
            span.tag(candidates=len(candidates))

        if not candidates:
            return TuningResult(
                feature=self.feature_name,
                assessments=[],
                chosen=[],
                delta=ConfigurationDelta([]),
                candidate_count=0,
                selector_name=self._selector.name,
            )

        with self._tracer.span("assess") as span:
            reset = self._feature.reset_delta(db, forecast)
            assessments = self._assessor.assess(candidates, db, forecast, reset)
            span.tag(assessments=len(assessments))

        budgets = self._feature.budgets(db, constraints, forecast)
        probabilities = {s.name: s.probability for s in forecast.scenarios}
        core = self._selector.desirability(probabilities)

        def score(a: Assessment) -> float:
            return core(a) - self._reconfiguration_weight * a.one_time_cost_ms

        with self._tracer.span("select", selector=self._selector.name) as span:
            try:
                chosen = self._selector.select(assessments, budgets, score)
            except SelectionError as exc:
                # no feasible selection: the feature keeps its setting
                span.tag(infeasible=str(exc))
                return TuningResult(
                    feature=self.feature_name,
                    assessments=assessments,
                    chosen=[],
                    delta=ConfigurationDelta([]),
                    candidate_count=len(candidates),
                    selector_name=self._selector.name,
                    infeasible=str(exc),
                )
            span.tag(chosen=len(chosen))

        problems = validate_selection(
            assessments, {assessments.index(a) for a in chosen}, budgets
        )
        if problems:
            raise RuntimeError(
                f"selector {self._selector.name!r} returned an infeasible "
                f"selection: {problems}"
            )

        delta = self._feature.delta_for_choices(
            db, [a.candidate for a in chosen], forecast
        )
        predicted = {
            name: sum(a.desirability.get(name, 0.0) for a in chosen)
            for name in forecast.scenario_names
        }
        benefit = sum(
            forecast.scenario(name).probability * value
            for name, value in predicted.items()
        )
        return TuningResult(
            feature=self.feature_name,
            assessments=assessments,
            chosen=chosen,
            delta=delta,
            predicted_desirability=predicted,
            predicted_benefit_ms=benefit,
            reconfiguration_cost_ms=delta.estimate_cost_ms(db),
            candidate_count=len(candidates),
            selector_name=self._selector.name,
        )

    def apply(
        self,
        result: TuningResult,
        executor: SequentialExecutor | None = None,
    ) -> ApplicationReport:
        """Apply a proposed result through a tuning executor.

        On a permanent action failure the executor rolls the pass back
        and raises :class:`~repro.errors.TuningAbortedError`; the tuner
        attaches the feature name and the proposed result so callers
        (planner, organizer) can account for the aborted pass.
        """
        executor = executor or SequentialExecutor()
        with self._tracer.span("execute", executor=executor.name) as span:
            try:
                report = executor.execute(result.delta, self._db)
            except TuningAbortedError as exc:
                exc.feature = self.feature_name
                exc.result = result
                raise
            span.tag(
                actions=len(result.delta.actions),
                work_ms=round(report.total_work_ms, 3),
            )
        return report

    def tune(
        self,
        forecast: Forecast,
        constraints: ConstraintSet | None = None,
        executor: SequentialExecutor | None = None,
    ) -> tuple[TuningResult, ApplicationReport]:
        """Propose and immediately apply."""
        result = self.propose(forecast, constraints)
        report = self.apply(result, executor)
        return result, report

"""Recursive tuning of multiple features in an optimized order.

"We propose a mechanism to recursively tune all features in a reasonable
order while taking their dependencies into account" (Section III-A).
The planner measures the dependence matrix, solves the ordering LP, and
then tunes the features one by one — each tuning run proposing against the
database state its predecessors left behind, which is what makes the order
matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configuration.constraints import ConstraintSet
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.errors import OrderingError, TuningAbortedError
from repro.forecasting.scenarios import Forecast
from repro.ordering.dependence import DependenceAnalyzer, DependenceMatrix
from repro.ordering.lp import LPOrderOptimizer, OrderingSolution
from repro.telemetry import Telemetry, Tracer
from repro.tuning.executors.base import ApplicationReport, TuningExecutor
from repro.tuning.tuner import Tuner, TuningResult


@dataclass
class FeatureRunRecord:
    """One feature's tuning within a recursive run."""

    feature: str
    result: TuningResult
    report: ApplicationReport
    cost_before_ms: float
    cost_after_ms: float
    #: True when the application failed permanently and was rolled back
    failed: bool = False
    #: failure message of the aborting error, when failed
    failure: str | None = None


@dataclass
class RecursiveTuningReport:
    """Outcome of one full recursive tuning pass."""

    order: tuple[str, ...]
    initial_cost_ms: float
    final_cost_ms: float
    runs: list[FeatureRunRecord] = field(default_factory=list)
    matrix: DependenceMatrix | None = None
    ordering_solution: OrderingSolution | None = None

    @property
    def improvement(self) -> float:
        """Relative workload-cost improvement of the whole pass."""
        if self.initial_cost_ms <= 0:
            return 0.0
        return 1.0 - self.final_cost_ms / self.initial_cost_ms

    @property
    def total_reconfiguration_ms(self) -> float:
        return sum(run.report.total_work_ms for run in self.runs)

    @property
    def failed_features(self) -> tuple[str, ...]:
        """Features whose application was rolled back this pass."""
        return tuple(run.feature for run in self.runs if run.failed)


class RecursiveTuningPlanner:
    """Measure dependencies → optimize order → tune features recursively."""

    def __init__(
        self,
        db: Database,
        tuners: list[Tuner],
        constraints: ConstraintSet | None = None,
        order_optimizer: LPOrderOptimizer | None = None,
        optimizer: WhatIfOptimizer | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not tuners:
            raise OrderingError("at least one tuner is required")
        self._db = db
        self._tuners = {t.feature_name: t for t in tuners}
        self._constraints = constraints or ConstraintSet()
        self._order_optimizer = order_optimizer or LPOrderOptimizer()
        self._optimizer = optimizer or WhatIfOptimizer(db)
        self._tracer: Tracer = (
            telemetry.tracer if telemetry is not None else Tracer()
        )

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tuners))

    def measure_dependencies(self, forecast: Forecast) -> DependenceMatrix:
        analyzer = DependenceAnalyzer(
            self._db,
            list(self._tuners.values()),
            self._constraints,
            self._optimizer,
        )
        return analyzer.measure(forecast)

    def plan_order(
        self, forecast: Forecast
    ) -> tuple[DependenceMatrix, OrderingSolution]:
        matrix = self.measure_dependencies(forecast)
        solution = self._order_optimizer.optimize(matrix)
        return matrix, solution

    def run(
        self,
        forecast: Forecast,
        order: tuple[str, ...] | None = None,
        executor: TuningExecutor | None = None,
    ) -> RecursiveTuningReport:
        """Tune all features in ``order`` (or the LP-optimized order)."""
        matrix: DependenceMatrix | None = None
        solution: OrderingSolution | None = None
        if order is None:
            if len(self._tuners) >= 2:
                matrix, solution = self.plan_order(forecast)
                order = solution.order
            else:
                order = self.feature_names
        unknown = set(order) - set(self._tuners)
        if unknown:
            raise OrderingError(f"unknown features in order: {sorted(unknown)}")

        sample_queries = dict(forecast.sample_queries)
        initial = self._optimizer.scenario_cost_ms(
            forecast.expected, sample_queries
        )
        runs: list[FeatureRunRecord] = []
        current = initial
        for name in order:
            tuner = self._tuners[name]
            failure: str | None = None
            with self._tracer.span("feature", name=name) as span:
                try:
                    result, report = tuner.tune(
                        forecast, self._constraints, executor
                    )
                except TuningAbortedError as exc:
                    # the executor rolled the pass back; record the
                    # aborted run and continue with the remaining features
                    failure = str(exc)
                    result = exc.result  # type: ignore[assignment]
                    report = exc.report  # type: ignore[assignment]
                    span.tag(error=repr(exc))
                after = self._optimizer.scenario_cost_ms(
                    forecast.expected, sample_queries
                )
                span.tag(
                    candidates=result.candidate_count,
                    chosen=len(result.chosen),
                    cost_before_ms=round(current, 3),
                    cost_after_ms=round(after, 3),
                )
            runs.append(
                FeatureRunRecord(
                    feature=name,
                    result=result,
                    report=report,
                    cost_before_ms=current,
                    cost_after_ms=after,
                    failed=failure is not None,
                    failure=failure,
                )
            )
            current = after
        return RecursiveTuningReport(
            order=tuple(order),
            initial_cost_ms=initial,
            final_cost_ms=current,
            runs=runs,
            matrix=matrix,
            ordering_solution=solution,
        )

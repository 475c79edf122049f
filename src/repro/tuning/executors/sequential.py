"""The tuning executor: one action at a time, in delta order.

"The executor takes care of applying the choices that were selected
previously. There are different application strategies regarding order,
point in time and sequential or parallel application" (Section II-D.d).
The delta order is already cost-aware (drops before creates, encodings
before index builds), so sequential application is the strategy: each
action is accounted as it lands.

The executor is **failure-aware**: an optional
:class:`~repro.faults.injector.FaultInjector` gates every application
attempt, transient failures are retried with capped exponential backoff
in *simulated* time (:func:`~repro.faults.recovery.backoff_ms`), and a
permanent failure rolls the partial pass back through the inverse
actions collected so far, restoring the pre-pass configuration
bit-identically before a
:class:`~repro.errors.TuningAbortedError` propagates. See
docs/robustness.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configuration.actions import Action
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.errors import ActionError, TuningAbortedError
from repro.faults import recovery
from repro.faults.injector import FaultInjector
from repro.kpi.metrics import (
    ACTION_FAILURES,
    ACTION_RETRIES,
    ROLLBACK_ACTIONS,
    ROLLBACKS,
)
from repro.telemetry.facade import Telemetry
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.spans import Tracer


@dataclass
class ApplicationReport:
    """What the tuning executor did and what it cost.

    **Work** (:attr:`total_work_ms`, what counters and configuration
    records accumulate) and **elapsed** (:attr:`elapsed_ms`, what the
    clock advanced by) are distinct; the contract is stated once, in
    docs/components.md, "Changing the configuration". In short: elapsed
    is forward work plus backoff plus rollback work, backoff is elapsed
    only, and rollback work is reported apart from forward work.
    """

    strategy: str
    action_summaries: list[str] = field(default_factory=list)
    action_costs_ms: list[float] = field(default_factory=list)
    #: simulated wall time the application occupied (finished - started)
    elapsed_ms: float = 0.0
    started_ms: float = 0.0
    finished_ms: float = 0.0
    #: transient-failure retries spent across all actions
    retries: int = 0
    #: simulated wall time spent waiting between retries (clock only)
    backoff_ms: float = 0.0
    #: True when the pass failed permanently and was rolled back
    rolled_back: bool = False
    #: inverse actions applied during rollback
    rollback_actions: int = 0
    #: reconfiguration work spent rolling back (clock and counters)
    rollback_work_ms: float = 0.0
    #: description of the action whose failure aborted the pass
    failed_action: str | None = None
    #: inverse actions of the applied pass, in application order — kept on
    #: a *clean* pass so the commit guard can retain them for probation
    #: (see repro.guard); empty after a rollback consumed them
    inverse_actions: list[Action] = field(default_factory=list)

    @property
    def total_work_ms(self) -> float:
        """Sum of per-action forward costs (excludes backoff waits and
        rollback work).

        This is the quantity recorded by counters and configuration
        records.
        """
        return sum(self.action_costs_ms)

    @property
    def action_count(self) -> int:
        return len(self.action_summaries)


class SequentialExecutor:
    """Applies a configuration delta one action after another.

    :meth:`execute` is the one application loop. It stands on the failure
    machinery: :meth:`_apply_action` (inject → estimate → apply raw,
    retrying transient faults) and :meth:`_abort` (roll back the applied
    prefix, finalise the report, raise
    :class:`~repro.errors.TuningAbortedError`).
    """

    name = "sequential"

    def __init__(
        self,
        injector: FaultInjector | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._injector = injector
        if telemetry is not None:
            self._tracer = telemetry.tracer
            registry = telemetry.registry
        else:
            self._tracer = Tracer()
            registry = MetricRegistry()
        self._retries_counter = registry.counter(ACTION_RETRIES)
        self._failures_counter = registry.counter(ACTION_FAILURES)
        self._rollbacks_counter = registry.counter(ROLLBACKS)
        self._rollback_actions_counter = registry.counter(ROLLBACK_ACTIONS)

    @property
    def injector(self) -> FaultInjector | None:
        return self._injector

    def execute(self, delta: ConfigurationDelta, db: Database) -> ApplicationReport:
        """Apply all actions of ``delta`` in delta order.

        Each action is accounted as it lands: the clock and the counters
        advance by its work (docs/components.md, "Changing the
        configuration"). A permanent failure rolls back every action
        applied so far, restoring the pre-call configuration, and then
        raises :class:`~repro.errors.TuningAbortedError`.
        """
        report = ApplicationReport(
            strategy=self.name, started_ms=db.clock.now_ms
        )
        inverse_stack: list[Action] = []
        for action in delta.actions:
            try:
                cost, inverse = self._apply_action(action, db, report)
            except Exception as exc:
                self._abort(db, inverse_stack, report, action, exc)
            inverse_stack.extend(inverse)
            db._record_reconfiguration(cost, 1)
            report.action_summaries.append(action.describe())
            report.action_costs_ms.append(cost)
        report.finished_ms = db.clock.now_ms
        report.elapsed_ms = report.finished_ms - report.started_ms
        # a clean pass hands its inverse actions to the caller: the commit
        # guard retains them for the probation window (see repro.guard)
        report.inverse_actions = inverse_stack
        return report

    # ------------------------------------------------------------------
    # failure machinery

    def _apply_action(
        self,
        action: Action,
        db: Database,
        report: ApplicationReport,
    ) -> tuple[float, list[Action]]:
        """Apply one action through the raw path, retrying transients.

        Returns ``(cost_ms, inverse_actions)``. Cost is the pre-apply
        estimate — taken *before* the mutation, since estimates are
        state-dependent. Each retry advances only the simulated clock by
        the backoff (waiting is elapsed time, not reconfiguration work)
        and rolls the injector dice again. Raises :class:`~repro.errors.ActionError`
        once retries are exhausted or the fault is permanent.
        """
        attempt = 0
        while True:
            try:
                if self._injector is not None:
                    self._injector.before_apply(action)
                cost = action.estimate_cost_ms(db)
                inverse = action.apply_raw(db)
                return cost, inverse
            except ActionError as exc:
                self._failures_counter.inc()
                if not exc.transient or attempt >= recovery.MAX_RETRIES:
                    raise
                backoff = recovery.backoff_ms(attempt)
                db.clock.advance(backoff)
                report.retries += 1
                report.backoff_ms += backoff
                self._retries_counter.inc()
                attempt += 1

    def _rollback(
        self,
        db: Database,
        inverse_stack: list[Action],
        report: ApplicationReport,
    ) -> None:
        """Undo the applied prefix via its inverse actions (LIFO).

        Rollback is real reconfiguration effort: the clock and the
        database counters both advance by the inverse-action work.
        What-if cache entries for the pre-pass configuration are found
        again afterwards, being keyed on what each query reads.
        """
        with self._tracer.span("rollback", actions=len(inverse_stack)):
            work = 0.0
            for inverse in reversed(inverse_stack):
                work += inverse.estimate_cost_ms(db)
                inverse.apply_raw(db)
            db._record_reconfiguration(work, len(inverse_stack))
        report.rolled_back = True
        report.rollback_actions = len(inverse_stack)
        report.rollback_work_ms = work
        self._rollbacks_counter.inc()
        if inverse_stack:
            self._rollback_actions_counter.inc(len(inverse_stack))

    def rollback(
        self,
        db: Database,
        inverse_actions: list[Action],
    ) -> ApplicationReport:
        """Public rollback entry point for *post-commit* rollbacks.

        The commit guard retains a clean pass's inverse actions; when
        the pass later turns out to regress runtime KPIs, the organizer
        undoes it here — through the exact machinery a failed application
        already uses, so clock/counter accounting is identical. Returns
        the finalised report of the rollback.
        """
        report = ApplicationReport(
            strategy="guard_rollback", started_ms=db.clock.now_ms
        )
        self._rollback(db, list(inverse_actions), report)
        report.finished_ms = db.clock.now_ms
        report.elapsed_ms = report.finished_ms - report.started_ms
        return report

    def _abort(
        self,
        db: Database,
        inverse_stack: list[Action],
        report: ApplicationReport,
        action: Action,
        exc: Exception,
    ) -> None:
        """Roll back, finalise the report, and re-raise.

        Injected (and other) :class:`~repro.errors.ActionError` failures
        surface as :class:`~repro.errors.TuningAbortedError` carrying
        the report; any other exception — a genuine bug in an action —
        propagates unchanged after the rollback, so existing error
        contracts (e.g. ``KnobError``) are preserved while the database
        is still left consistent.
        """
        report.failed_action = action.describe()
        self._rollback(db, inverse_stack, report)
        report.finished_ms = db.clock.now_ms
        report.elapsed_ms = report.finished_ms - report.started_ms
        if isinstance(exc, ActionError):
            raise TuningAbortedError(
                f"tuning pass aborted: {exc}", report=report, cause=exc
            ) from exc
        raise exc

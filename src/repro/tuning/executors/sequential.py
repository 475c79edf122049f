"""Sequential application: one action at a time, in delta order.

The delta order is already cost-aware (drops before creates, encodings
before index builds), so sequential application is the safe default.
Each action runs through the shared failure machinery of
:class:`~repro.tuning.executors.base.TuningExecutor`: transient faults
retry with backoff, a permanent fault rolls back every action applied
so far before the abort propagates.
"""

from __future__ import annotations

from repro.configuration.actions import Action
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.tuning.executors.base import ApplicationReport, TuningExecutor


class SequentialExecutor(TuningExecutor):
    """Applies actions one after another, accounting each as it lands."""

    name = "sequential"

    def execute(self, delta: ConfigurationDelta, db: Database) -> ApplicationReport:
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
            db._record_reconfiguration(cost, cost, 1)
            report.action_summaries.append(action.describe())
            report.action_costs_ms.append(cost)
        report.finished_ms = db.clock.now_ms
        report.elapsed_ms = report.finished_ms - report.started_ms
        # a clean pass hands its inverse actions to the caller: the commit
        # guard retains them for the probation window (see repro.guard)
        report.inverse_actions = inverse_stack
        return report

"""Parallel application: independent actions overlap in simulated time.

Actions are applied in delta order (correctness), but the simulated wall
time advanced is the *maximum* batch cost rather than the sum, modelling
``worker_count`` reconfiguration workers running concurrently. Total work
(and therefore the reconfiguration cost recorded in KPIs) is unchanged.

Failure handling is batch-aware: when an action fails permanently
mid-batch, the already applied batch prefix is first accounted (clock
and counters see the work that really happened) and then the whole pass
— this batch's prefix and all earlier batches — is rolled back through
the shared machinery, leaving the database exactly as before the call.
"""

from __future__ import annotations

from repro.configuration.actions import Action
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.errors import TuningError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RetryPolicy
from repro.telemetry.facade import Telemetry
from repro.tuning.executors.base import ApplicationReport, TuningExecutor


class ParallelExecutor(TuningExecutor):
    """Applies actions in parallel batches of ``worker_count``."""

    name = "parallel"

    def __init__(
        self,
        worker_count: int = 4,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if worker_count < 1:
            raise TuningError("worker_count must be at least 1")
        super().__init__(injector=injector, retry=retry, telemetry=telemetry)
        self._worker_count = worker_count

    @staticmethod
    def _account_batch(
        db: Database,
        report: ApplicationReport,
        batch: list[Action],
        costs: list[float],
    ) -> None:
        # elapsed (clock) = batch max; work (counters) = batch sum —
        # docs/components.md, "Changing the configuration"
        db._record_reconfiguration(
            sum(costs), max(costs, default=0.0), len(batch)
        )
        report.action_summaries.extend(a.describe() for a in batch)
        report.action_costs_ms.extend(costs)

    def execute(self, delta: ConfigurationDelta, db: Database) -> ApplicationReport:
        report = ApplicationReport(
            strategy=self.name, started_ms=db.clock.now_ms
        )
        inverse_stack: list[Action] = []
        actions = list(delta.actions)
        for start in range(0, len(actions), self._worker_count):
            batch = actions[start : start + self._worker_count]
            costs: list[float] = []
            for action in batch:
                try:
                    cost, inverse = self._apply_action(action, db, report)
                except Exception as exc:
                    # account the applied batch prefix before rolling
                    # the whole pass back, so clock/counters reflect
                    # the work that really happened
                    self._account_batch(db, report, batch[: len(costs)], costs)
                    self._abort(db, inverse_stack, report, action, exc)
                costs.append(cost)
                inverse_stack.extend(inverse)
            self._account_batch(db, report, batch, costs)
        report.finished_ms = db.clock.now_ms
        report.elapsed_ms = report.finished_ms - report.started_ms
        # a clean pass hands its inverse actions to the caller: the commit
        # guard retains them for the probation window (see repro.guard)
        report.inverse_actions = inverse_stack
        return report

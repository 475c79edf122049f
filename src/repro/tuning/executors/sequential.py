"""Sequential application: one action at a time, in delta order.

The delta order is already cost-aware (drops before creates, encodings
before index builds), so sequential application is the safe default. It
is the shared application loop of
:class:`~repro.tuning.executors.base.TuningExecutor` run in batches of
one: each action is accounted as it lands, transient faults retry with
backoff, a permanent fault rolls back every action applied so far
before the abort propagates.
"""

from __future__ import annotations

from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.tuning.executors.base import ApplicationReport, TuningExecutor


class SequentialExecutor(TuningExecutor):
    """Applies actions one after another, accounting each as it lands."""

    name = "sequential"

    def execute(self, delta: ConfigurationDelta, db: Database) -> ApplicationReport:
        return self._execute_batches(delta, db, 1)

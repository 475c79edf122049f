"""Parallel application: independent actions overlap in simulated time.

The shared application loop of
:class:`~repro.tuning.executors.base.TuningExecutor` run in batches of
``worker_count``: actions are applied in delta order (correctness), but
the simulated wall time advanced is the *maximum* batch cost rather than
the sum, modelling ``worker_count`` reconfiguration workers running
concurrently (Section II-D.d names parallel application). Total work
(and therefore the reconfiguration cost recorded in KPIs) is unchanged,
and a mid-batch failure is handled by the loop like any other.
"""

from __future__ import annotations

from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.errors import TuningError
from repro.faults.injector import FaultInjector
from repro.telemetry.facade import Telemetry
from repro.tuning.executors.base import ApplicationReport, TuningExecutor


class ParallelExecutor(TuningExecutor):
    """Applies actions in parallel batches of ``worker_count``."""

    name = "parallel"

    def __init__(
        self,
        worker_count: int = 4,
        injector: FaultInjector | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if worker_count < 1:
            raise TuningError("worker_count must be at least 1")
        super().__init__(injector=injector, telemetry=telemetry)
        self._worker_count = worker_count

    def execute(self, delta: ConfigurationDelta, db: Database) -> ApplicationReport:
        return self._execute_batches(delta, db, self._worker_count)

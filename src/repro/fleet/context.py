"""The tenant context: one tenant's complete self-management stack.

Before the fleet layer existed, :class:`~repro.core.driver.Driver` wired
its components as bare attributes inside ``on_attach`` — workable with
one tenant, unliftable with N. :meth:`TenantContext.wire` now owns that
construction: the database, the telemetry spine, the event log, the KPI
monitor, the predictor, the what-if optimizer (and its per-tenant cost
cache), the failure-aware executor, the tuners, the configuration store
(whose records carry the guard's probation state) and the organizer are
built *per tenant* and travel as one object. The driver delegates to
it, so the single-tenant path is literally a one-tenant fleet; the
:class:`~repro.fleet.driver.FleetDriver` builds one context per tenant
and hands them to the arbiter.

Nothing in a context is shared between tenants. Cross-tenant state —
tuning priors, admission budgets, rollups — lives only in the
:class:`~repro.fleet.arbiter.FleetOrganizer`, which reads contexts but
never splices objects between them (the stats-sharing hazards this
refactor surfaced are tested in ``tests/fleet/test_isolation.py``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.configuration.constraints import ConstraintSet
from repro.configuration.store import ConfigurationInstanceStorage
from repro.core.events import EventLog
from repro.core.organizer import Organizer
from repro.core.triggers import TuningTrigger
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.faults.injector import FaultInjector
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models.seasonal import SeasonalNaive
from repro.forecasting.predictor import WorkloadPredictor
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.telemetry import Telemetry
from repro.tuning.executors.sequential import SequentialExecutor
from repro.tuning.features.base import FeatureTuner
from repro.tuning.tuner import Tuner
from repro.util.lru import CacheStats

if TYPE_CHECKING:
    from repro.core.driver import Driver, DriverConfig
    from repro.core.simulation import ClosedLoopSimulation
    from repro.workload.trace import WorkloadTrace

#: seasonal period (bins) for the default forecast model
DEFAULT_SEASONAL_PERIOD = 24


@dataclass
class TenantContext:
    """Everything one tenant's self-management loop owns.

    Built by :meth:`wire`; a ``Driver`` reaches every component through
    its ``context``. ``trace``/``simulation`` are the tenant's
    workload slots, filled by the fleet builder (the legacy single-tenant
    path drives its own simulation and leaves them ``None``).
    """

    tenant: str
    database: Database
    telemetry: Telemetry
    events: EventLog
    store: ConfigurationInstanceStorage
    monitor: RuntimeKPIMonitor
    predictor: WorkloadPredictor
    optimizer: WhatIfOptimizer
    executor: SequentialExecutor
    tuners: list[Tuner]
    organizer: Organizer
    features: list[FeatureTuner]
    injector: FaultInjector | None = None
    # --- workload slots (fleet-assigned) -------------------------------
    #: the driver whose on_attach wired this context (fleet-assigned;
    #: the legacy path reaches the context via driver.context instead)
    driver: "Driver | None" = None
    trace: "WorkloadTrace | None" = None
    simulation: "ClosedLoopSimulation | None" = None
    #: index of the workload mix profile this tenant was built with
    profile: int = 0
    #: traffic multiplier relative to the hottest tenant (1.0 = hottest)
    volume_scale: float = 1.0
    records: list = field(default_factory=list, repr=False)

    @classmethod
    def wire(
        cls,
        database: Database,
        features: list[FeatureTuner],
        config: "DriverConfig",
        constraints: ConstraintSet | None = None,
        triggers: list[TuningTrigger] | None = None,
    ) -> "TenantContext":
        """Build one tenant's full component stack around ``database``.

        This is the construction logic lifted out of ``Driver.on_attach``:
        one telemetry spine per tenant (counters in the database's
        registry, span trees in its tracer), one event log, one KPI
        monitor deriving interval KPIs from that registry, one predictor,
        one shared what-if optimizer (organizer, dependence analyzer, and
        every feature's assessor price through the same per-tenant cost
        cache), one failure-aware executor, one configuration store (the
        guarded-commit ledger), and one organizer owning quarantine.
        Selectors, forecast models and reconfiguration weights are
        exchanged on :class:`Tuner` and :class:`WorkloadAnalyzer`; the
        context builds their defaults.
        """
        tenant = config.tenant
        constraints = constraints or ConstraintSet()
        # one registry per stack: the database's, where its planner counts
        telemetry = Telemetry(
            database.clock,
            config.telemetry,
            tenant=tenant,
            registry=database.registry,
        )
        events = EventLog(sink=telemetry.sink, tenant=tenant)
        store = ConfigurationInstanceStorage()
        monitor = RuntimeKPIMonitor(
            database, registry=telemetry.registry, tenant=tenant
        )
        # functools.partial (not a lambda) keeps the analyzer — and with
        # it the whole context — picklable for fleet process workers
        analyzer = WorkloadAnalyzer(
            partial(SeasonalNaive, DEFAULT_SEASONAL_PERIOD)
        )
        predictor = WorkloadPredictor(database, analyzer)
        # seeded fault injection (off unless configured): the injector
        # gates executor applications, with its counters in the tenant's
        # registry
        injector: FaultInjector | None = None
        if config.faults is not None:
            injector = FaultInjector(
                config.faults, registry=telemetry.registry
            )
        optimizer = WhatIfOptimizer(database, registry=telemetry.registry)
        executor = SequentialExecutor(injector=injector, telemetry=telemetry)
        tuners = [
            Tuner(feature, optimizer, telemetry=telemetry)
            for feature in features
        ]
        organizer = Organizer(
            predictor,
            tuners,
            telemetry=telemetry,
            monitor=monitor,
            store=store,
            events=events,
            executor=executor,
            constraints=constraints,
            triggers=triggers,
            config=config.organizer,
        )
        # sampled per-query spans + exec work counters of served queries
        database.bind_telemetry(telemetry)
        return cls(
            tenant=tenant,
            database=database,
            telemetry=telemetry,
            events=events,
            store=store,
            monitor=monitor,
            predictor=predictor,
            optimizer=optimizer,
            executor=executor,
            tuners=tuners,
            organizer=organizer,
            features=list(features),
            injector=injector,
        )

    # ------------------------------------------------------------------
    # per-tenant observability (the fleet rollup reads these)

    @property
    def whatif_stats(self) -> CacheStats:
        """This tenant's what-if cost-cache stats (never shared)."""
        return self.optimizer.cache_stats

    @property
    def plan_stats(self) -> CacheStats:
        """This tenant's compiled-plan cache stats (never shared)."""
        return self.database.planner.cache_stats

    # ------------------------------------------------------------------
    # state transfer (fleet process workers)

    def __getstate__(self) -> dict[str, object]:
        # the workload slots stay behind: the trace holds query-family
        # sampler closures that cannot pickle, and whoever absorbs the
        # pickle owns its own copy of the (immutable) workload and the
        # complete records list
        return {
            **self.__dict__,
            "trace": None,
            "simulation": None,
            "records": [],
        }

    def transfer_snapshot(self) -> bytes:
        """Pickle this context for transfer out of a fleet worker.

        The workload slots and the organizer's fleet hooks (bound to the
        host's recorders) are left out by the two ``__getstate__``s, so
        nothing on the live context changes. Everything else — database,
        clock, telemetry, events, predictor history, the guard ledger —
        crosses verbatim.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    def absorb_transfer(self, blob: bytes) -> None:
        """Replace this (parent) context's state with a worker snapshot.

        The object identity is preserved — the fleet driver and arbiter
        keep their references — while every field is swapped for the
        worker's version. The workload slots are rebuilt from the
        parent's own trace (stripped for transfer), and the records list
        stays the parent's: the driver appends bin records parent-side
        as ticks complete, so the parent copy is the complete one. The
        caller must re-install the arbiter hooks (``LocalHost.arm``)
        afterwards.
        """
        from repro.core.simulation import ClosedLoopSimulation

        incoming = pickle.loads(blob)
        incoming.trace = self.trace
        incoming.simulation = ClosedLoopSimulation(
            incoming.database, self.trace, seed=self.simulation.seed
        )
        incoming.records = self.records
        self.__dict__.clear()
        self.__dict__.update(incoming.__dict__)
        # the unpickled driver still points at its clone context; repoint
        # it here or the clone (holding the live trace) rides along into
        # the next transfer_snapshot and breaks its pickling
        if self.driver is not None:
            self.driver.context = self

    def close(self) -> None:
        """Release what the context holds on the database (detach path)."""
        self.database.bind_telemetry(None)
        self.telemetry.close()

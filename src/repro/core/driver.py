"""The Driver: the framework's top-level facade, attached as a plugin.

"The driver is the central entity encapsulating all the other components
that are responsible for adding self-management capabilities" (Section
II-A). Following the paper's implementation strategy (Section II-B), the
driver integrates through the database's plugin infrastructure: it gets
direct access to internals without the core knowing about self-management,
and detaching it leaves the database fully functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.configuration.constraints import ConstraintSet
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig, OrganizerRunReport
from repro.core.triggers import TuningTrigger
from repro.dbms.database import Database
from repro.dbms.plugin import Plugin
from repro.errors import PluginError
from repro.faults.injector import FaultConfig
from repro.telemetry import TelemetryConfig
from repro.tuning.features.base import FeatureTuner

if TYPE_CHECKING:
    from repro.fleet.context import TenantContext


@dataclass
class DriverConfig:
    """Construction parameters of the driver and its components."""

    organizer: OrganizerConfig = field(default_factory=OrganizerConfig)
    #: price candidates with a continuously-maintained learned cost model
    #: instead of measured what-if execution (the low-overhead production
    #: mode of §II-A.d / §V); runs startup calibration on attach
    fast_assessment: bool = False
    #: the telemetry spine (spans, metric registry, sinks) shared by every
    #: component the driver wires up; see docs/telemetry.md
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: inject seeded action faults when set; see docs/robustness.md
    faults: FaultConfig | None = None
    #: tenant id labelling every event and span record this
    #: driver's components produce ('' = single-tenant; see docs/fleet.md)
    tenant: str = ""


class Driver(Plugin):
    """Encapsulates predictor, tuners, and organizer; attaches as a plugin.

    Attaching wires one :class:`~repro.fleet.context.TenantContext`, and
    every component is reached through ``driver.context``: a fleet merge
    or a checkpoint restore updates that context in place, so a handle
    on the driver never reads a replaced component.
    """

    def __init__(
        self,
        features: list[FeatureTuner],
        constraints: ConstraintSet | None = None,
        triggers: list[TuningTrigger] | None = None,
        config: DriverConfig | None = None,
    ) -> None:
        if not features:
            raise PluginError("the driver needs at least one feature tuner")
        self._features = features
        self._constraints = constraints or ConstraintSet()
        self._config = config or DriverConfig()
        self._triggers = triggers
        #: set while attached; the live database is the context's
        self._db: Database | None = None
        self.context: TenantContext | None = None

    # ------------------------------------------------------------------
    # plugin lifecycle

    @property
    def name(self) -> str:
        return "self-driving"

    def on_attach(self, database: Database) -> None:
        self._db = database
        # all component construction lives in TenantContext.wire — the
        # single-tenant driver is literally a one-tenant fleet. Imported
        # lazily: repro.fleet imports this module for FleetDriver, so a
        # module-level import would close a cycle through its __init__.
        from repro.fleet.context import TenantContext

        self.context = TenantContext.wire(
            database,
            features=self._features,
            config=self._config,
            constraints=self._constraints,
            triggers=self._triggers,
        )
        self.context.events.log(
            database.clock.now_ms,
            EventKind.OBSERVE,
            f"driver attached with features "
            f"{[f.name for f in self._features]}",
        )

    def on_detach(self) -> None:
        # configuration changes persist; only the loop stops
        if self._db is not None:
            ctx = self.context
            ctx.events.log(
                ctx.database.clock.now_ms, EventKind.OBSERVE, "driver detached"
            )
            ctx.close()
        self._db = None

    # ------------------------------------------------------------------
    # the self-management loop

    @property
    def database(self) -> Database:
        if self._db is None:
            raise PluginError("driver is not attached to a database")
        return self.context.database

    def on_tick(self, now_ms: float) -> None:
        """One loop iteration: observe, monitor, maybe tune."""
        db = self.database
        ctx = self.context
        ctx.predictor.observe()
        ctx.monitor.sample()
        # the commit guard runs before the trigger check: a
        # regressing commit rolls back as soon as the evidence is in, and
        # a forecast miss escalates without waiting for a trigger pass
        guard_report = ctx.organizer.guard_tick()
        if guard_report is not None:
            ctx.events.log(
                db.clock.now_ms,
                EventKind.APPLY,
                f"applied escalation tuning pass over {guard_report.order}",
            )
        if ctx.cost_maintenance is not None:
            ctx.cost_maintenance.on_tick(now_ms)
        report = ctx.organizer.tick()
        if report is not None:
            ctx.events.log(
                db.clock.now_ms,
                EventKind.APPLY,
                f"applied tuning pass over {report.order}",
            )

    def tune_now(self) -> OrganizerRunReport | None:
        """Force a tuning pass immediately (manual mode).

        Returns ``None`` when the organizer skips the pass because the
        tuning-time budget admits no feature.
        """
        return self.context.organizer.run_tuning()

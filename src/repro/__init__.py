"""repro — a reproduction of "A Framework for Self-Managing Database
Systems" (Kossmann & Schlosser, ICDE Workshops 2019).

The package implements the paper's component-based self-management
framework end to end, including every substrate it depends on:

- :mod:`repro.dbms` — a Hyrise-like chunked, columnar, in-memory engine
  with segment encodings, per-chunk indexes, storage tiers, knobs, a plan
  cache, simulated timing, and a plugin host;
- :mod:`repro.workload` — a SQL subset, query templates, workload
  generators, and time-binned traces with drift injectors;
- :mod:`repro.forecasting` — the Workload Predictor: plan-cache snapshots
  → series → forecast models → multi-scenario forecasts;
- :mod:`repro.cost` — logical, physical, and adaptive learned cost models
  plus the what-if optimizer;
- :mod:`repro.configuration` — configuration instances, deltas/actions,
  constraints, and the instance store (one record per committed pass:
  the feedback loop and the probation state);
- :mod:`repro.tuning` — the Tuner pipeline: enumerators, assessors,
  selectors (greedy/optimal/genetic/robust), the executor, and four feature
  tuners (indexes, compression, placement, buffer pool);
- :mod:`repro.ordering` — Section III: measured dependence ratios and the
  integer LP that optimizes the multi-feature tuning order;
- :mod:`repro.core` — the Driver, Organizer, triggers, event log, and the
  closed-loop simulation harness;
- :mod:`repro.telemetry` — the telemetry spine: hierarchical spans (on
  the simulated and the wall clock), a shared metric registry, and
  pluggable sinks every component reports through;
- :mod:`repro.faults` — seeded fault injection and recovery: action
  failures with retry/backoff, rollback of failed passes, and the
  organizer's per-feature quarantine breaker;
- :mod:`repro.guard` — guarded reconfiguration: commit probation with
  the inverse actions retained on the commit's record, a runtime
  regression watchdog that rolls bad commits back, and forecast-miss
  escalation;
- :mod:`repro.fleet` — fleet-scale multi-tenancy: per-tenant contexts,
  a fleet organizer arbitrating the tuning budget across tenants, and
  shared tuning priors replayed onto look-alike tenants;

Quickstart::

    from repro import Database, Driver, standard_features
    from repro.workload import build_retail_suite

    suite = build_retail_suite()
    db = suite.database
    driver = Driver(standard_features())
    db.plugin_host.attach(driver)
    # ... execute workload; the driver observes, forecasts, and tunes.
"""

from repro.configuration import (
    ConfigurationDelta,
    ConfigurationInstance,
    ConstraintSet,
    ResourceBudget,
    SlaConstraint,
)
from repro.core import (
    ClosedLoopSimulation,
    Driver,
    DriverConfig,
    Organizer,
    OrganizerConfig,
)
from repro.cost import (
    LearnedCostModel,
    LogicalCostModel,
    PhysicalCostModel,
    WhatIfOptimizer,
)
from repro.dbms import Database, DataType, EncodingType, StorageTier, TableSchema
from repro.faults import FaultConfig, FaultInjector, FeatureQuarantine
from repro.fleet import (
    FleetConfig,
    FleetDriver,
    FleetOrganizer,
    TenantContext,
    build_fleet,
)
from repro.forecasting import Forecast, WorkloadAnalyzer, WorkloadPredictor
from repro.guard import CommitGuard
from repro.ordering import (
    DependenceAnalyzer,
    LPOrderOptimizer,
    RecursiveTuningPlanner,
)
from repro.plan import PhysicalPlan, PlanStep, QueryPlanner, StepKind
from repro.telemetry import (
    MetricRegistry,
    Telemetry,
    TelemetryConfig,
    Tracer,
    render_span_tree,
)
from repro.tuning import Tuner
from repro.tuning.features import standard_features
from repro.workload import Predicate, Query, parse_sql

__version__ = "0.1.0"

__all__ = [
    "ClosedLoopSimulation",
    "CommitGuard",
    "ConfigurationDelta",
    "ConfigurationInstance",
    "ConstraintSet",
    "DataType",
    "Database",
    "DependenceAnalyzer",
    "Driver",
    "DriverConfig",
    "EncodingType",
    "FaultConfig",
    "FaultInjector",
    "FeatureQuarantine",
    "FleetConfig",
    "FleetDriver",
    "FleetOrganizer",
    "Forecast",
    "LPOrderOptimizer",
    "LearnedCostModel",
    "LogicalCostModel",
    "MetricRegistry",
    "Organizer",
    "OrganizerConfig",
    "PhysicalCostModel",
    "PhysicalPlan",
    "PlanStep",
    "Predicate",
    "Query",
    "QueryPlanner",
    "RecursiveTuningPlanner",
    "ResourceBudget",
    "SlaConstraint",
    "StepKind",
    "StorageTier",
    "TableSchema",
    "Telemetry",
    "TelemetryConfig",
    "TenantContext",
    "Tracer",
    "Tuner",
    "WhatIfOptimizer",
    "WorkloadAnalyzer",
    "WorkloadPredictor",
    "__version__",
    "build_fleet",
    "parse_sql",
    "render_span_tree",
    "standard_features",
]

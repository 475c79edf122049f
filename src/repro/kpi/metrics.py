"""Runtime KPI definitions.

"We classify runtime KPIs as DBMS or system specific. Examples for typical
DBMS KPIs are query response times … system KPIs are mostly comprised of
hardware metrics: CPU utilization, memory usage, or cache misses"
(Section II-A.e).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# DBMS-specific KPIs
MEAN_QUERY_MS = "mean_query_ms"
#: 99th-percentile per-query latency of the interval, derived from the
#: database's recent-latency ring (see RuntimeKPIMonitor.sample)
P99_QUERY_MS = "p99_query_ms"
THROUGHPUT_QPS = "throughput_qps"
TOTAL_QUERY_MS = "total_query_ms"
QUERIES_EXECUTED = "queries_executed"
RECONFIGURATION_MS = "reconfiguration_ms"
INDEX_MEMORY_BYTES = "index_memory_bytes"
MEMORY_BYTES = "memory_bytes"

# what-if cost-cache KPIs (per monitoring interval; see cost/what_if.py).
# The hits/misses/evictions names double as the optimizer's counter names
# in the telemetry MetricRegistry; the monitor derives the interval KPIs
# generically from those counters.
WHATIF_CACHE_HITS = "whatif_cache_hits"
WHATIF_CACHE_MISSES = "whatif_cache_misses"
WHATIF_CACHE_EVICTIONS = "whatif_cache_evictions"
WHATIF_CACHE_HIT_RATE = "whatif_cache_hit_rate"
WHATIF_CACHE_SIZE = "whatif_cache_size"
#: fraction of positive-frequency forecast templates the last scenario
#: pricing could actually price (a sample query existed); below 1.0 the
#: scenario cost silently underestimates the workload
WHATIF_SCENARIO_COVERAGE = "whatif_scenario_coverage"

# compiled-plan cache KPIs (see repro.plan.planner). The counter names
# are owned by the planner — the plan layer sits below the DBMS substrate
# and cannot import this package — and are re-exported here so KPI
# consumers have one import site; the monitor derives the interval hit
# rate from the counters.
from repro.plan.planner import (  # noqa: E402, F401  (re-export)
    PLAN_CACHE_EVICTIONS,
    PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES,
    PLAN_CACHE_SIZE,
    PLAN_COMPILE_CHUNKS,
    PLAN_COMPILES,
)

PLAN_CACHE_HIT_RATE = "plan_cache_hit_rate"

# fault/recovery counters (tuning-loop robustness; see repro.faults and
# docs/robustness.md). The injector owns the faults_* names, the
# failure-aware executors the action_*/rollback* names, and the
# organizer's feature quarantine the quarantine_* names. All live in the
# shared telemetry MetricRegistry, so `python -m repro trace` and the
# organizer's per-pass interval reads see them without bespoke wiring.
FAULTS_INJECTED = "faults_injected"
FAULTS_TRANSIENT = "faults_transient"
FAULTS_PERMANENT = "faults_permanent"
ACTION_RETRIES = "action_retries"
ACTION_FAILURES = "action_failures"
ROLLBACKS = "rollbacks"
ROLLBACK_ACTIONS = "rollback_actions"
QUARANTINE_OPENED = "quarantine_opened"
QUARANTINE_CLOSED = "quarantine_closed"

FAULT_KPIS = (
    FAULTS_INJECTED,
    FAULTS_TRANSIENT,
    FAULTS_PERMANENT,
    ACTION_RETRIES,
    ACTION_FAILURES,
    ROLLBACKS,
    ROLLBACK_ACTIONS,
    QUARANTINE_OPENED,
    QUARANTINE_CLOSED,
)

# fleet fault-tolerance counters (process-level robustness; see
# repro.fleet.checkpoint, repro.fleet.parallel and docs/robustness.md).
# Unlike the tenant-scoped names above, these live in the FleetDriver's
# own fleet-level registry: checkpoint writes and worker restarts are
# properties of the control plane, not of any tenant, and keeping them
# out of the tenant registries preserves the bit-identity of tenant
# counter rollups between checkpointed and checkpoint-free runs.
CHECKPOINT_WRITES = "checkpoint_writes"
CHECKPOINT_BYTES = "checkpoint_bytes"
CHECKPOINT_RESTORES = "checkpoint_restores"
CHECKPOINT_CORRUPTIONS_DETECTED = "checkpoint_corruptions_detected"
WORKER_RESTARTS = "worker_restarts"
WORKER_HARD_KILLS = "worker_hard_kills"
FLEET_TENANT_QUARANTINES = "fleet_tenant_quarantines"

# guarded-commit counters (decision-level robustness; see repro.guard and
# docs/robustness.md). The commit guard owns all guard_* names; they live
# in the shared telemetry MetricRegistry like the fault counters above.
GUARD_COMMITS = "guard_commits"
GUARD_PASSED = "guard_passed"
GUARD_SUPERSEDED = "guard_superseded"
GUARD_REGRESSIONS = "guard_regressions"
GUARD_ROLLBACKS = "guard_rollbacks"
GUARD_FORECAST_MISSES = "guard_forecast_misses"
GUARD_ESCALATIONS = "guard_escalations"

GUARD_KPIS = (
    GUARD_COMMITS,
    GUARD_PASSED,
    GUARD_SUPERSEDED,
    GUARD_REGRESSIONS,
    GUARD_ROLLBACKS,
    GUARD_FORECAST_MISSES,
    GUARD_ESCALATIONS,
)

# system-specific KPIs (simulated hardware view)
CPU_UTILIZATION = "cpu_utilization"
MEMORY_UTILIZATION = "memory_utilization"
CACHE_MISS_RATE = "cache_miss_rate"

DBMS_KPIS = (
    MEAN_QUERY_MS,
    P99_QUERY_MS,
    THROUGHPUT_QPS,
    TOTAL_QUERY_MS,
    QUERIES_EXECUTED,
    RECONFIGURATION_MS,
    INDEX_MEMORY_BYTES,
    MEMORY_BYTES,
    WHATIF_CACHE_HITS,
    WHATIF_CACHE_MISSES,
    WHATIF_CACHE_EVICTIONS,
    WHATIF_CACHE_HIT_RATE,
    WHATIF_CACHE_SIZE,
    WHATIF_SCENARIO_COVERAGE,
    PLAN_COMPILES,
    PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES,
    PLAN_CACHE_EVICTIONS,
    PLAN_CACHE_HIT_RATE,
    PLAN_CACHE_SIZE,
)
SYSTEM_KPIS = (CPU_UTILIZATION, MEMORY_UTILIZATION, CACHE_MISS_RATE)


@dataclass(frozen=True)
class KPISample:
    """All KPI values at one sampling instant."""

    at_ms: float
    values: dict[str, float] = field(default_factory=dict)

    def get(self, metric: str, default: float = 0.0) -> float:
        return self.values.get(metric, default)

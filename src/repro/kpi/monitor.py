"""The runtime KPI monitor.

"The use cases of runtime KPIs are manifold. First, they are necessary for
determining the impact of adjusted configurations … Second, runtime KPIs
can disclose when the configuration should be adjusted … Furthermore, these
KPIs can help to identify phases of low resource utilization that can be
used to run resource-intensive tunings" (Section II-A.e). All three uses
hang off this monitor: interval-derived KPI samples, SLA breach tracking,
and idle detection.

Beyond the database's own counters, the monitor derives interval KPIs
*generically* from a telemetry :class:`~repro.telemetry.MetricRegistry`:
every registered counter becomes a per-interval delta and every gauge a
point-in-time value in each sample. New subsystems therefore get KPI
coverage by registering a counter — no monitor changes required. The
what-if cost-cache KPIs flow through exactly this path.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice

from repro.configuration.constraints import SlaConstraint
from repro.dbms.database import Database
from repro.kpi.metrics import (
    CPU_UTILIZATION,
    INDEX_MEMORY_BYTES,
    MEAN_QUERY_MS,
    MEMORY_BYTES,
    P99_QUERY_MS,
    PLAN_CACHE_HIT_RATE,
    PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES,
    QUERIES_EXECUTED,
    RECONFIGURATION_MS,
    THROUGHPUT_QPS,
    TOTAL_QUERY_MS,
    WHATIF_CACHE_HIT_RATE,
    WHATIF_CACHE_HITS,
    WHATIF_CACHE_MISSES,
    KPISample,
)
from repro.kpi.system import derive_system_kpis
from repro.telemetry.metrics import MetricRegistry

#: KPI samples kept; means and percentiles read at most this many
WINDOW = 64
#: CPU utilization at or below which a sample counts as idle
IDLE_THRESHOLD = 0.5
#: trailing samples that must all be idle for :meth:`RuntimeKPIMonitor.is_idle`
IDLE_SAMPLES = 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


class RuntimeKPIMonitor:
    """Samples KPIs from database counters on demand."""

    def __init__(
        self,
        db: Database,
        registry: MetricRegistry | None = None,
        tenant: str = "",
    ) -> None:
        """``registry`` is the telemetry registry whose counters/gauges are
        folded into every sample (the driver passes its shared one); a
        private empty registry is used when omitted. ``tenant`` labels the
        monitor in a fleet ('' for single-tenant); each tenant owns its
        own monitor, window, and registry — KPIs never mix across tenants
        except through an explicit fleet rollup."""
        self._db = db
        self._tenant = tenant
        self._samples: deque[KPISample] = deque(maxlen=WINDOW)
        self._last_snapshot = db.runtime_snapshot()
        self._sla_streaks: dict[str, int] = {}
        self._sample_seq = 0
        self._streak_seq = 0
        self._registry = registry if registry is not None else MetricRegistry()
        self._last_metric_snapshot = self._registry.snapshot_counters()

    @property
    def registry(self) -> MetricRegistry:
        """The registry whose metrics are folded into each sample."""
        return self._registry

    @property
    def tenant(self) -> str:
        """Tenant this monitor belongs to ('' for single-tenant)."""
        return self._tenant

    def sample(self) -> KPISample:
        """Close one monitoring interval and derive its KPIs."""
        current = self._db.runtime_snapshot()
        previous = self._last_snapshot
        self._last_snapshot = current

        # generic telemetry-derived KPIs first, so the monitor's own
        # built-in derivations win on any name collision
        values: dict[str, float] = {}
        metrics = self._registry.snapshot_counters()
        for name, value in metrics.items():
            values[name] = value - self._last_metric_snapshot.get(name, 0.0)
        self._last_metric_snapshot = metrics
        values.update(self._registry.snapshot_gauges())
        if WHATIF_CACHE_HITS in metrics or WHATIF_CACHE_MISSES in metrics:
            hits = values.get(WHATIF_CACHE_HITS, 0.0)
            priced = hits + values.get(WHATIF_CACHE_MISSES, 0.0)
            values[WHATIF_CACHE_HIT_RATE] = hits / priced if priced else 0.0
        if PLAN_CACHE_HITS in metrics or PLAN_CACHE_MISSES in metrics:
            hits = values.get(PLAN_CACHE_HITS, 0.0)
            looked_up = hits + values.get(PLAN_CACHE_MISSES, 0.0)
            values[PLAN_CACHE_HIT_RATE] = (
                hits / looked_up if looked_up else 0.0
            )

        elapsed_ms = current["now_ms"] - previous["now_ms"]
        queries = current["queries_executed"] - previous["queries_executed"]
        query_ms = current["total_query_ms"] - previous["total_query_ms"]
        # tail latency of the interval, from the database's bounded
        # recent-latency ring: the interval's queries are its newest
        # entries (the ring only ever drops the oldest), so the last
        # `queries` values are exactly this interval's latencies unless
        # trimming outpaced the window — then the whole ring is the best
        # available approximation
        p99 = 0.0
        if queries > 0:
            recent = self._db.counters.recent_query_ms
            tail_n = min(int(queries), len(recent))
            if tail_n:
                p99 = percentile(recent[-tail_n:], 0.99)
        values.update(
            {
                QUERIES_EXECUTED: queries,
                TOTAL_QUERY_MS: query_ms,
                MEAN_QUERY_MS: query_ms / queries if queries > 0 else 0.0,
                P99_QUERY_MS: p99,
                THROUGHPUT_QPS: (
                    1000.0 * queries / elapsed_ms if elapsed_ms > 0 else 0.0
                ),
                RECONFIGURATION_MS: current["total_reconfiguration_ms"]
                - previous["total_reconfiguration_ms"],
                INDEX_MEMORY_BYTES: current["index_bytes"],
                MEMORY_BYTES: current["memory_bytes"],
            }
        )
        values.update(
            derive_system_kpis(previous, current, self._db.hardware)
        )
        sample = KPISample(at_ms=current["now_ms"], values=values)
        self._samples.append(sample)
        self._sample_seq += 1
        return sample

    # ------------------------------------------------------------------
    # history access

    @property
    def latest(self) -> KPISample | None:
        return self._samples[-1] if self._samples else None

    def history(self) -> tuple[KPISample, ...]:
        return tuple(self._samples)

    def mean(self, metric: str, last_n: int | None = None) -> float:
        # iterate the deque in place (islice) instead of copying it
        count = len(self._samples)
        if last_n is not None:
            count = min(last_n, count)
        if count == 0:
            return 0.0
        window = islice(self._samples, len(self._samples) - count, None)
        return sum(s.get(metric) for s in window) / count

    # ------------------------------------------------------------------
    # SLA tracking and idle detection

    def update_sla_streaks(self, slas: tuple[SlaConstraint, ...]) -> dict[str, int]:
        """Refresh per-SLA consecutive-violation streaks from the latest
        sample; returns metric → streak length.

        Idempotent per sample: calling this again before a new
        :meth:`sample` closes the next interval (e.g. several trigger
        evaluations within one organizer tick) must not count the same
        violation twice, so repeat calls return the current streaks
        unchanged.
        """
        latest = self.latest
        if latest is None:
            return dict(self._sla_streaks)
        if self._streak_seq == self._sample_seq:
            return dict(self._sla_streaks)
        self._streak_seq = self._sample_seq
        for sla in slas:
            if latest.get(sla.metric) > sla.threshold:
                self._sla_streaks[sla.metric] = (
                    self._sla_streaks.get(sla.metric, 0) + 1
                )
            else:
                self._sla_streaks[sla.metric] = 0
        return dict(self._sla_streaks)

    def breached_slas(
        self, slas: tuple[SlaConstraint, ...]
    ) -> list[SlaConstraint]:
        """SLAs whose violation streak has reached their patience."""
        return [
            sla
            for sla in slas
            if self._sla_streaks.get(sla.metric, 0) >= sla.patience
        ]

    def is_idle(self) -> bool:
        """Low-utilization window suitable for resource-intensive tunings:
        the last :data:`IDLE_SAMPLES` samples are all at or below
        :data:`IDLE_THRESHOLD` CPU utilization."""
        if len(self._samples) < IDLE_SAMPLES:
            return False
        recent = islice(self._samples, len(self._samples) - IDLE_SAMPLES, None)
        return all(s.get(CPU_UTILIZATION) <= IDLE_THRESHOLD for s in recent)

"""Tests for the KPI monitor and system KPI derivation."""

import pytest

from repro.configuration.constraints import SlaConstraint
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.storage_tiers import StorageTier
from repro.kpi.metrics import (
    CACHE_MISS_RATE,
    CPU_UTILIZATION,
    MEAN_QUERY_MS,
    MEMORY_UTILIZATION,
    QUERIES_EXECUTED,
    THROUGHPUT_QPS,
    WHATIF_CACHE_EVICTIONS,
    WHATIF_CACHE_HIT_RATE,
    WHATIF_CACHE_HITS,
    WHATIF_CACHE_MISSES,
)
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.kpi.system import derive_system_kpis
from repro.workload.predicate import Predicate
from repro.workload.query import Query

from tests.conftest import make_small_database


def test_sample_counts_interval_queries():
    db = make_small_database(rows=1_000)
    monitor = RuntimeKPIMonitor(db)
    db.execute("SELECT COUNT(*) FROM events")
    db.execute("SELECT COUNT(*) FROM events")
    sample = monitor.sample()
    assert sample.get(QUERIES_EXECUTED) == 2
    assert sample.get(MEAN_QUERY_MS) > 0
    # next interval starts clean
    second = monitor.sample()
    assert second.get(QUERIES_EXECUTED) == 0


def test_throughput_uses_elapsed_time():
    db = make_small_database(rows=1_000)
    monitor = RuntimeKPIMonitor(db)
    db.execute("SELECT COUNT(*) FROM events")
    db.clock.advance(1_000)
    sample = monitor.sample()
    assert 0 < sample.get(THROUGHPUT_QPS) <= 1.0


def test_cpu_utilization_reflects_busy_fraction():
    db = make_small_database(rows=20_000)
    monitor = RuntimeKPIMonitor(db)
    for _ in range(10):
        db.execute("SELECT COUNT(*) FROM events WHERE user < 50")
    busy_sample = monitor.sample()  # no idle time: utilization ~1
    assert busy_sample.get(CPU_UTILIZATION) > 0.9
    db.execute("SELECT COUNT(*) FROM events")
    db.clock.advance(10_000)
    idle_sample = monitor.sample()
    assert idle_sample.get(CPU_UTILIZATION) < 0.1


def test_cache_miss_rate():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    monitor = RuntimeKPIMonitor(db)
    db.move_chunk("events", 0, StorageTier.SSD)
    db.execute("SELECT COUNT(*) FROM events")  # one miss, then cached
    db.execute("SELECT COUNT(*) FROM events")  # one hit
    sample = monitor.sample()
    assert sample.get(CACHE_MISS_RATE) == pytest.approx(0.5)


def test_is_idle_requires_consecutive_quiet_samples():
    db = make_small_database(rows=1_000)
    monitor = RuntimeKPIMonitor(db)
    assert not monitor.is_idle()  # not enough samples yet
    db.clock.advance(1_000)
    monitor.sample()
    db.clock.advance(1_000)
    monitor.sample()
    assert monitor.is_idle()


def test_sla_streaks_and_breach():
    db = make_small_database(rows=5_000)
    monitor = RuntimeKPIMonitor(db)
    sla = SlaConstraint(MEAN_QUERY_MS, 0.0000001, patience=2)
    db.execute("SELECT COUNT(*) FROM events")
    monitor.sample()
    monitor.update_sla_streaks((sla,))
    assert monitor.breached_slas((sla,)) == []
    db.execute("SELECT COUNT(*) FROM events")
    monitor.sample()
    monitor.update_sla_streaks((sla,))
    assert monitor.breached_slas((sla,)) == [sla]
    # a healthy interval resets the streak
    db.clock.advance(1_000)
    monitor.sample()
    monitor.update_sla_streaks((sla,))
    assert monitor.breached_slas((sla,)) == []


def test_sla_streaks_do_not_double_count_one_sample():
    db = make_small_database(rows=5_000)
    monitor = RuntimeKPIMonitor(db)
    sla = SlaConstraint(MEAN_QUERY_MS, 0.0000001, patience=2)
    db.execute("SELECT COUNT(*) FROM events")
    monitor.sample()
    first = monitor.update_sla_streaks((sla,))
    # a second evaluation against the *same* sample (several triggers in
    # one organizer tick) must not advance the streak
    second = monitor.update_sla_streaks((sla,))
    assert first == second == {MEAN_QUERY_MS: 1}
    assert monitor.breached_slas((sla,)) == []


def test_whatif_cache_kpis_appear_after_bind():
    db = make_small_database(rows=2_000)
    monitor = RuntimeKPIMonitor(db)
    assert WHATIF_CACHE_HITS not in monitor.sample().values
    optimizer = WhatIfOptimizer(db, registry=monitor.registry)
    query = Query("events", (Predicate("user", "=", 3),), aggregate="count")
    optimizer.query_cost_ms(query)
    optimizer.query_cost_ms(query)
    sample = monitor.sample()
    assert sample.get(WHATIF_CACHE_MISSES) == 1.0
    assert sample.get(WHATIF_CACHE_HITS) == 1.0
    assert sample.get(WHATIF_CACHE_HIT_RATE) == pytest.approx(0.5)
    assert sample.get(WHATIF_CACHE_EVICTIONS) == 0.0
    # the next interval starts clean (deltas, not cumulative counters)
    idle = monitor.sample()
    assert idle.get(WHATIF_CACHE_MISSES) == 0.0
    assert idle.get(WHATIF_CACHE_HIT_RATE) == 0.0


def test_mean_over_window():
    db = make_small_database(rows=500)
    monitor = RuntimeKPIMonitor(db)
    for _ in range(3):
        db.execute("SELECT COUNT(*) FROM events")
        monitor.sample()
    assert monitor.mean(QUERIES_EXECUTED) == pytest.approx(1.0)
    assert monitor.mean(QUERIES_EXECUTED, last_n=1) == 1.0
    assert len(monitor.history()) == 3
    assert monitor.latest is monitor.history()[-1]


def test_derive_system_kpis_handles_zero_elapsed():
    db = make_small_database(rows=100)
    snapshot = db.runtime_snapshot()
    kpis = derive_system_kpis(snapshot, snapshot, db.hardware)
    assert kpis[CPU_UTILIZATION] == 0.0
    assert kpis[CACHE_MISS_RATE] == 0.0
    assert 0.0 <= kpis[MEMORY_UTILIZATION] <= 1.0

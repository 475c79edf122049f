"""Tests for per-tenant cache stats, explicit aggregation, and rollups."""

import pytest

from repro.fleet import build_fleet
from repro.telemetry.metrics import (
    MetricRegistry,
    rollup_counters,
    tenant_metric,
)
from repro.util.lru import CacheStats

BINS = 4
ROWS = 2_000


@pytest.mark.parametrize(
    "parts, expected",
    [
        pytest.param(
            [
                CacheStats(hits=10, misses=5, evictions=1, invalidations=0, size=4),
                CacheStats(hits=2, misses=3, evictions=0, invalidations=2, size=1),
            ],
            CacheStats(hits=12, misses=8, evictions=1, invalidations=2, size=5),
            id="plan",
        ),
        pytest.param(
            [
                CacheStats(hits=7, misses=3, evictions=2, size=3),
                CacheStats(hits=1, misses=1, evictions=0, size=1),
            ],
            CacheStats(hits=8, misses=4, evictions=2, size=4),
            id="whatif",
        ),
    ],
)
def test_cache_stats_aggregate_sums_counts(parts, expected):
    total = CacheStats.aggregate(parts)
    assert total == expected
    assert total.hit_rate == expected.hits / (expected.hits + expected.misses)


def test_aggregate_of_nothing_is_zero():
    assert CacheStats.aggregate([]) == CacheStats()


def test_tenant_metric_prefixes():
    assert tenant_metric("t3", "exec_queries") == "t3::exec_queries"
    # the single-tenant default keeps bare metric names
    assert tenant_metric("", "exec_queries") == "exec_queries"


def test_snapshot_labelled_and_rollup_counters():
    a, b = MetricRegistry(), MetricRegistry()
    a.counter("exec_queries").inc(10)
    b.counter("exec_queries").inc(5)
    b.counter("rollbacks").inc(1)
    a.gauge("pool_bytes").set(100)

    labelled = a.snapshot_labelled("t0")
    assert labelled["t0::exec_queries"] == 10

    total = rollup_counters({"t0": a, "t1": b})
    assert total["exec_queries"] == 15
    assert total["rollbacks"] == 1
    # gauges do not add meaningfully across tenants and stay out
    assert "pool_bytes" not in total


def test_fleet_tenants_have_isolated_caches_and_stats():
    fleet = build_fleet(2, bins=BINS, rows=ROWS)
    fleet.run()
    t0, t1 = fleet.tenants
    # distinct component instances per tenant — nothing is spliced
    assert t0.optimizer is not t1.optimizer
    assert t0.database.planner is not t1.database.planner
    assert t0.telemetry.registry is not t1.telemetry.registry
    assert t0.events is not t1.events
    # both tenants did work, and the rollup is the exact sum
    report = fleet.report()
    assert report.whatif.misses == sum(
        s.whatif.misses for s in report.summaries
    )
    assert report.plan.hits == sum(s.plan.hits for s in report.summaries)
    assert report.counters["exec_queries"] == sum(
        ctx.telemetry.registry.snapshot_counters()["exec_queries"]
        for ctx in fleet.tenants
    )


def test_labelled_metrics_namespace_every_tenant():
    fleet = build_fleet(2, bins=BINS, rows=ROWS)
    fleet.run()
    merged = fleet.labelled_metrics()
    assert merged["t0::exec_queries"] > 0
    assert merged["t1::exec_queries"] > 0
    assert not any(name.startswith("::") for name in merged)


def test_incremental_rollup_matches_full_registry_walk():
    """report().counters accumulates per-bin deltas; the result must be
    exactly what a full walk of every tenant registry would produce."""
    fleet = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    report = fleet.run()
    registries = {
        ctx.tenant: ctx.telemetry.registry for ctx in fleet.tenants
    }
    assert report.counters == rollup_counters(registries)


def test_incremental_rollup_stays_exact_across_partial_reports():
    fleet = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    fleet.run(stop=2)
    partial = fleet.report()
    registries = {
        ctx.tenant: ctx.telemetry.registry for ctx in fleet.tenants
    }
    assert partial.counters == rollup_counters(registries)
    final = fleet.run()  # resumes; the accumulator keeps counting
    assert final.counters == rollup_counters(registries)


@pytest.mark.parametrize("parallel", ["serial", "process"])
def test_report_walks_no_tenant_registry(monkeypatch, parallel):
    """The rollup is assembled from per-bin drains as bins complete:
    ``report()`` reads only the fleet's own infrastructure registry."""
    fleet = build_fleet(2, seed=5, bins=BINS, rows=ROWS, parallel=parallel)
    for index in range(BINS):
        fleet.run_bin(index)
    walked = []
    original = MetricRegistry.snapshot_counters
    monkeypatch.setattr(
        MetricRegistry,
        "snapshot_counters",
        lambda self: walked.append(self) or original(self),
    )
    fleet.report()
    assert all(registry is fleet._fleet_registry for registry in walked)

"""Tests for per-tenant cache stats, explicit aggregation, and rollups."""

import pytest

from repro.fleet import FleetDriver, build_fleet
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


def _fleet(**kwargs):
    return build_fleet(2, seed=5, bins=BINS, rows=ROWS, **kwargs)


def _registry_walk(fleet):
    """The oracle. Read after ``report()``: merging a worker pool back
    swaps the registries."""
    return rollup_counters(
        {ctx.tenant: ctx.telemetry.registry for ctx in fleet.tenants}
    )


def test_incremental_rollup_matches_full_registry_walk():
    fleet = _fleet()
    assert fleet.run().counters == _registry_walk(fleet)


def test_incremental_rollup_stays_exact_across_partial_reports():
    fleet = _fleet()
    partial = fleet.run(stop=2).counters
    assert partial == _registry_walk(fleet)
    final = fleet.run().counters  # resumes at bin 2
    assert final == _registry_walk(fleet)
    assert final["exec_queries"] > partial["exec_queries"]


def _process(tmp_path):
    fleet = _fleet(parallel="process", workers=2)
    fleet.run()
    return fleet


def _resumed(tmp_path):
    first = _fleet()
    first.run(stop=2)
    first.checkpoint(tmp_path)
    fleet = FleetDriver.resume(tmp_path)
    fleet.run()
    return fleet


def _pass_driven_by_hand_between_bins(tmp_path):
    fleet = _fleet()
    before = fleet.run(stop=BINS - 1).counters
    # moves counters outside any bin: no tick or replay reply carries it
    assert fleet.tenants[0].organizer.run_tuning() is not None
    after = fleet.report().counters
    assert after["guard_commits"] == before["guard_commits"] + 1
    return fleet


@pytest.mark.parametrize(
    "situation", [_process, _resumed, _pass_driven_by_hand_between_bins]
)
def test_report_counters_equal_the_registry_walk(tmp_path, situation):
    """Wherever the tenants ran and whatever moved their counters,
    ``report()`` sums the registries the driver holds — with the serial
    and partial-run cases above, the five situations in which a second
    copy of the counters could disagree with the first."""
    fleet = situation(tmp_path)
    counters = fleet.report().counters
    assert counters == _registry_walk(fleet)
    assert counters["exec_queries"] > 0

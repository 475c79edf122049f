"""Tests for the query plan cache."""

from repro.dbms.plan_cache import QueryPlanCache
from repro.workload.predicate import Predicate
from repro.workload.query import Query


def _query(value: int) -> Query:
    return Query("t", (Predicate("a", "=", value),), aggregate="count")


def test_record_aggregates_per_template():
    cache = QueryPlanCache()
    cache.record(_query(1), 2.0, now_ms=10.0)
    entry = cache.record(_query(2), 4.0, now_ms=20.0)
    assert len(cache) == 1  # same template, different literals
    assert entry.execution_count == 2
    assert entry.total_ms == 6.0
    assert entry.mean_ms == 3.0
    assert entry.first_seen_ms == 10.0
    assert entry.last_seen_ms == 20.0


def test_sample_query_is_most_recent():
    cache = QueryPlanCache()
    cache.record(_query(1), 1.0, 0.0)
    cache.record(_query(42), 1.0, 1.0)
    entry = cache.entries()[0]
    assert entry.sample_query.predicates[0].value == 42


def test_lru_eviction_at_capacity(monkeypatch):
    monkeypatch.setattr("repro.dbms.plan_cache.CAPACITY", 2)
    cache = QueryPlanCache()
    cache.record(Query("t", aggregate="count"), 1.0, 0.0)
    cache.record(_query(1), 1.0, 1.0)
    cache.record(Query("t", (Predicate("b", "<", 1),)), 1.0, 2.0)
    assert len(cache) == 2
    assert cache.evictions == 1
    # the oldest (count star) is gone
    assert cache.entry("SELECT COUNT(*) FROM t") is None


def test_recording_refreshes_lru_position(monkeypatch):
    monkeypatch.setattr("repro.dbms.plan_cache.CAPACITY", 2)
    cache = QueryPlanCache()
    a = Query("t", aggregate="count")
    cache.record(a, 1.0, 0.0)
    cache.record(_query(1), 1.0, 1.0)
    cache.record(a, 1.0, 2.0)  # refresh a
    cache.record(Query("t", (Predicate("b", "<", 1),)), 1.0, 3.0)
    assert cache.entry(a.template().key) is not None
    assert cache.entry(_query(1).template().key) is None


def test_snapshot_shape():
    cache = QueryPlanCache()
    cache.record(_query(1), 2.5, 0.0)
    snapshot = cache.snapshot()
    key = _query(1).template().key
    assert snapshot[key] == (1, 2.5)

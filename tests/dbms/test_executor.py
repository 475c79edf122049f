"""Tests for the query executor, buffer pool, and timing model."""

import pytest

from repro.dbms.executor import BufferPool
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB
from repro.dbms.storage_tiers import StorageTier
from repro.errors import ExecutionError
from repro.workload.predicate import Predicate
from repro.workload.query import Query

from tests.conftest import make_small_database


def test_count_star():
    db = make_small_database(rows=3_000)
    result = db.execute("SELECT COUNT(*) FROM events")
    assert result.aggregate_value == 3_000.0


def test_projection_materialization():
    db = make_small_database(rows=500)
    result = db.execute(
        Query("events", (Predicate("user", "=", 7),), projection=("id", "value")),
        materialize=True,
    )
    assert result.rows is not None
    assert set(result.rows) == {"id", "value"}
    assert len(result.rows["id"]) == result.row_count


def test_unknown_column_rejected():
    db = make_small_database(rows=100)
    with pytest.raises(ExecutionError):
        db.execute(Query("events", (Predicate("nope", "=", 1),)))
    with pytest.raises(ExecutionError):
        db.execute(Query("events", (), projection=("nope",)))
    with pytest.raises(ExecutionError):
        db.execute(Query("events", (), aggregate="sum", aggregate_column="nope"))


def test_report_breakdown_sums_to_elapsed():
    db = make_small_database(rows=2_000)
    report = db.execute("SELECT SUM(value) FROM events WHERE user < 50").report
    total = (
        report.scan_ms
        + report.probe_ms
        + report.output_ms
        + report.aggregate_ms
        + report.overhead_ms
    )
    assert report.elapsed_ms == pytest.approx(total)


def test_threads_knob_reduces_scan_time():
    db = make_small_database(rows=20_000)
    slow = db.execute("SELECT COUNT(*) FROM events WHERE user = 5").report.scan_ms
    db.set_knob(SCAN_THREADS_KNOB, 8)
    fast = db.execute("SELECT COUNT(*) FROM events WHERE user = 5").report.scan_ms
    assert fast < slow


def test_non_dram_chunk_is_slower_then_cached():
    db = make_small_database(rows=5_000, chunk_size=5_000)
    base = db.execute("SELECT COUNT(*) FROM events WHERE user = 3").report
    db.move_chunk("events", 0, StorageTier.SSD)
    cold = db.execute("SELECT COUNT(*) FROM events WHERE user = 3").report
    warm = db.execute("SELECT COUNT(*) FROM events WHERE user = 3").report
    assert cold.elapsed_ms > base.elapsed_ms
    assert cold.work.buffer_misses == 1
    assert warm.work.buffer_hits == 1
    assert warm.elapsed_ms < cold.elapsed_ms


def test_zero_buffer_pool_never_caches():
    db = make_small_database(rows=5_000, chunk_size=5_000)
    db.set_knob(BUFFER_POOL_KNOB, 0)
    db.move_chunk("events", 0, StorageTier.NVM)
    first = db.execute("SELECT COUNT(*) FROM events").report
    second = db.execute("SELECT COUNT(*) FROM events").report
    assert first.work.buffer_misses == 1
    assert second.work.buffer_misses == 1


def test_probe_mode_does_not_touch_buffer_pool():
    db = make_small_database(rows=5_000, chunk_size=5_000)
    db.move_chunk("events", 0, StorageTier.SSD)
    query = Query("events", (), aggregate="count")
    table = db.table("events")
    db.executor.execute(query, table, probe=True)
    assert db.executor.buffer_pool.used_bytes == 0
    # non-probe admits
    db.executor.execute(query, table)
    assert db.executor.buffer_pool.used_bytes > 0
    # probe sees the hit without reordering
    result = db.executor.execute(query, table, probe=True)
    assert result.report.work.buffer_hits == 1


def test_a_query_that_raises_leaves_the_buffer_pool_as_it_found_it():
    """The ``id`` predicate prunes chunks 0-2 and ``user >= '7'`` raises
    on the chunks it cannot prune: the pool admits nothing and refreshes
    no entry, cold or warm."""
    db = make_small_database(rows=3_000, chunk_size=500)
    for chunk in range(6):
        db.move_chunk("events", chunk, StorageTier.NVM)
    pool = db.executor.buffer_pool
    failing = Query(
        "events",
        (Predicate("id", ">=", 1500), Predicate("user", ">=", "7")),
        aggregate="count",
    )
    with pytest.raises(TypeError):
        db.execute(failing)
    assert pool.entry_count == 0
    db.execute("SELECT COUNT(*) FROM events")
    warm = list(pool._entries.items())
    with pytest.raises(TypeError):
        db.execute(failing)
    assert list(pool._entries.items()) == warm


# ----------------------------------------------------------------------
# BufferPool unit tests


def test_buffer_pool_lru_eviction():
    pool = BufferPool(100)
    assert not pool.access(("t", 0), 60)
    assert not pool.access(("t", 1), 60)  # evicts chunk 0
    assert pool.used_bytes == 60
    assert not pool.access(("t", 0), 60)
    assert pool.access(("t", 0), 60)


def test_buffer_pool_rejects_oversized_entries():
    pool = BufferPool(50)
    assert not pool.access(("t", 0), 100)
    assert pool.used_bytes == 0


def test_buffer_pool_capacity_shrink_evicts():
    pool = BufferPool(200)
    pool.access(("t", 0), 80)
    pool.access(("t", 1), 80)
    pool.set_capacity(100)
    assert pool.used_bytes <= 100


def test_buffer_pool_invalidate():
    pool = BufferPool(200)
    pool.access(("t", 0), 80)
    pool.invalidate(("t", 0))
    assert pool.used_bytes == 0
    assert not pool.peek(("t", 0))

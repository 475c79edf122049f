"""What retires a cached what-if cost, and what does not.

A configuration epoch used to carry this contract — hence the file and
test names, which the tier-1 floor list pins: read "bumps the epoch" as
"changes the cache key of every cost that reads what changed". The cost
cache keys on what a query reads (``docs/planner.md``, "Footprints and
caches"), so the contract is asserted on the cache itself: a mutation a
query can see must make its cached cost miss, a no-op or a mutation it
cannot see must not, and an exact what-if rollback must land back on the
entries of the surrounding state. Soundness under arbitrary sequences is
``tests/plan/test_cache_soundness.py``'s job; these pin the reuse.
"""

from repro.configuration.actions import (
    CreateIndexAction,
    SetEncodingAction,
    SetKnobAction,
)
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.workload import Predicate, Query

from tests.conftest import make_small_database

BY_USER = Query("events", (Predicate("user", "=", 7),), aggregate="count")
BY_VALUE = Query("events", (Predicate("value", "<", 5.0),), aggregate="count")


def _priced(optimizer, *queries):
    """(hits, misses) that pricing ``queries`` once more adds."""
    before = optimizer.cache_stats
    optimizer.batch_query_costs(queries)
    after = optimizer.cache_stats
    return after.hits - before.hits, after.misses - before.misses


def test_accounted_config_changes_bump_the_epoch():
    db = make_small_database(rows=1_000)
    optimizer = WhatIfOptimizer(db)
    assert _priced(optimizer, BY_USER, BY_VALUE) == (0, 2)
    # an index or an encoding of `user` is read by BY_USER only
    db.create_index("events", ["user"])
    assert _priced(optimizer, BY_USER, BY_VALUE) == (1, 1)
    db.set_encoding("events", "user", EncodingType.DICTIONARY)
    assert _priced(optimizer, BY_USER, BY_VALUE) == (1, 1)
    # the thread count is read by every scan
    db.set_knob(SCAN_THREADS_KNOB, 4)
    assert _priced(optimizer, BY_USER, BY_VALUE) == (0, 2)


def test_raw_apply_bumps_only_on_real_mutation():
    db = make_small_database(rows=1_000)
    optimizer = WhatIfOptimizer(db)
    _priced(optimizer, BY_USER)
    # a real mutation through the raw path retires the cost
    SetEncodingAction("events", "user", EncodingType.DICTIONARY).apply_raw(db)
    assert _priced(optimizer, BY_USER) == (0, 1)
    # a no-op (setting the encoding it already has) does not
    SetEncodingAction("events", "user", EncodingType.DICTIONARY).apply_raw(db)
    assert _priced(optimizer, BY_USER) == (1, 0)


def test_execute_bumps_epoch_only_on_buffer_pool_traffic():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    optimizer = WhatIfOptimizer(db)
    # all chunks in DRAM: execution never touches the buffer pool
    cold = optimizer.query_cost_ms(BY_USER)
    db.execute("SELECT COUNT(*) FROM events")
    assert _priced(optimizer, BY_USER) == (1, 0)
    # a chunk on SSD makes the cost depend on whether the pool holds it
    db.move_chunk("events", 0, StorageTier.SSD)
    on_ssd = optimizer.query_cost_ms(BY_USER)
    assert on_ssd > cold
    db.execute("SELECT COUNT(*) FROM events")  # admits chunk 0
    assert _priced(optimizer, BY_USER) == (0, 1)
    assert optimizer.query_cost_ms(BY_USER) == cold
    # LRU movement alone changes no membership: still the same entry
    db.execute("SELECT COUNT(*) FROM events")
    assert _priced(optimizer, BY_USER) == (1, 0)


def test_hypothetical_restores_the_epoch_on_exact_rollback():
    db = make_small_database(rows=1_000)
    optimizer = WhatIfOptimizer(db)
    _priced(optimizer, BY_USER)
    delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    with optimizer.hypothetical(delta):
        assert _priced(optimizer, BY_USER) == (0, 1)
    assert _priced(optimizer, BY_USER) == (1, 0)


def test_reapplying_the_same_delta_revisits_the_same_epoch():
    db = make_small_database(rows=1_000)
    optimizer = WhatIfOptimizer(db)
    delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    with optimizer.hypothetical(delta):
        first = optimizer.query_cost_ms(BY_USER)
    with optimizer.hypothetical(delta):
        assert _priced(optimizer, BY_USER) == (1, 0)
        assert optimizer.query_cost_ms(BY_USER) == first


def test_distinct_deltas_from_the_same_epoch_get_distinct_epochs():
    db = make_small_database(rows=1_000)
    optimizer = WhatIfOptimizer(db)
    delta_a = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    delta_b = ConfigurationDelta([SetKnobAction(SCAN_THREADS_KNOB, 8)])
    base = optimizer.query_cost_ms(BY_USER)
    with optimizer.hypothetical(delta_a):
        assert _priced(optimizer, BY_USER) == (0, 1)
        cost_a = optimizer.query_cost_ms(BY_USER)
    with optimizer.hypothetical(delta_b):
        assert _priced(optimizer, BY_USER) == (0, 1)
        cost_b = optimizer.query_cost_ms(BY_USER)
    assert len({base, cost_a, cost_b}) == 3

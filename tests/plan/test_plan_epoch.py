"""What retires a compiled plan, and what does not.

A plan epoch used to carry this contract — hence the file and test
names, which the tier-1 floor list pins: read "bumps the plan epoch" as
"changes the key of every plan that binds what changed". The plan cache
keys on the table's footprint for the query's predicate columns
(``docs/planner.md``, "Footprints and caches"), which is deliberately
coarser than what a *cost* reads: structural mutations of those columns
must retire the plan; tiers, knobs and buffer-pool traffic must not
(plans resolve them at bind time); and an exact what-if rollback must
find the plans of the surrounding state again.
"""

from repro.configuration.actions import CreateIndexAction
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.workload import Predicate, Query

from tests.conftest import make_small_database

BY_USER = Query("events", (Predicate("user", "=", 7),))


def _planned(db, query=BY_USER):
    """(hits, misses) that planning ``query`` once more adds."""
    before = db.planner.cache_stats
    db.planner.plan_for(query, db.table(query.table))
    after = db.planner.cache_stats
    return after.hits - before.hits, after.misses - before.misses


def test_every_accounted_primitive_bumps_the_plan_epoch():
    db = make_small_database(rows=1_000)
    optimizer = WhatIfOptimizer(db)
    #: primitive -> does it change what BY_USER's plan binds?
    for mutate, structural in (
        (lambda: db.create_index("events", ["user"]), True),
        (lambda: db.set_encoding("events", "user", EncodingType.DICTIONARY), True),
        (lambda: db.move_chunk("events", 0, StorageTier.NVM), False),
        (lambda: db.sort_chunk("events", 0, "user"), True),
        (lambda: db.set_knob(SCAN_THREADS_KNOB, 4), False),
        (lambda: db.drop_index("events", ["user"]), True),
        # nothing BY_USER reads: neither its plan nor its cost moves
        (lambda: db.set_encoding("events", "kind", EncodingType.DICTIONARY), None),
    ):
        _planned(db)
        optimizer.query_cost_ms(BY_USER)
        mutate()
        assert _planned(db) == ((0, 1) if structural else (1, 0))
        # every one of them changes what the query costs, though
        misses = optimizer.cache_stats.misses
        optimizer.query_cost_ms(BY_USER)
        assert optimizer.cache_stats.misses == misses + (structural is not None)


def test_buffer_traffic_bumps_config_epoch_but_not_plan_epoch():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    optimizer = WhatIfOptimizer(db)
    db.move_chunk("events", 0, StorageTier.SSD)
    _planned(db)
    optimizer.query_cost_ms(BY_USER)
    db.execute("SELECT COUNT(*) FROM events")  # admits chunk 0
    assert _planned(db) == (1, 0)
    misses = optimizer.cache_stats.misses
    optimizer.query_cost_ms(BY_USER)
    assert optimizer.cache_stats.misses == misses + 1


def test_raw_actions_bump_the_plan_epoch_only_on_real_mutation():
    db = make_small_database(rows=1_000)
    _planned(db)
    CreateIndexAction("events", ("user",)).apply_raw(db)
    assert _planned(db) == (0, 1)
    # re-creating an index that already exists is a no-op
    CreateIndexAction("events", ("user",)).apply_raw(db)
    assert _planned(db) == (1, 0)


def test_hypothetical_restores_the_plan_epoch_on_exact_rollback():
    db = make_small_database(rows=1_000)
    optimizer = WhatIfOptimizer(db)
    table = db.table("events")
    before = db.planner.plan_for(BY_USER, table)
    delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    with optimizer.hypothetical(delta):
        assert db.planner.plan_for(BY_USER, table) is not before
    assert db.planner.plan_for(BY_USER, table) is before


def test_reexploring_a_hypothetical_state_reuses_compiled_plans():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    optimizer = WhatIfOptimizer(db, cache_size=0)  # isolate plan caching
    delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])

    with optimizer.hypothetical(delta):
        optimizer.query_cost_ms(BY_USER)
    hits = db.planner.cache_stats.hits
    with optimizer.hypothetical(delta):
        # the same structures are swapped back in, so the footprint is
        # the first visit's and the probe executes the plan compiled then
        optimizer.query_cost_ms(BY_USER)
    assert db.planner.cache_stats.hits == hits + 1

"""Tests for the what-if optimizer: zero-side-effect hypothetical costing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configuration.actions import (
    CreateIndexAction,
    MoveChunkAction,
    SetEncodingAction,
    SetKnobAction,
)
from repro.configuration.config import ConfigurationInstance
from repro.configuration.delta import ConfigurationDelta
from repro.cost.logical import LogicalCostModel
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.forecasting.scenarios import point_forecast
from repro.workload.predicate import Predicate
from repro.workload.query import Query

from tests.conftest import make_small_database


def _query():
    return Query("events", (Predicate("user", "=", 7),), aggregate="count")


def test_measured_cost_matches_probe_execution():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db)
    assert optimizer.is_measured
    direct = db.executor.execute(
        _query(), db.table("events"), probe=True
    ).report.elapsed_ms
    assert optimizer.query_cost_ms(_query()) == pytest.approx(direct)


def test_estimator_backed_optimizer():
    db = make_small_database(rows=5_000)
    model = LogicalCostModel(db)
    optimizer = WhatIfOptimizer(db, estimator=model)
    assert not optimizer.is_measured
    assert optimizer.query_cost_ms(_query()) == pytest.approx(
        model.estimate_query_ms(_query())
    )


def test_hypothetical_index_rolls_back_exactly():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db)
    before_instance = ConfigurationInstance.capture(db)
    before_cost = optimizer.query_cost_ms(_query())
    delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    with optimizer.hypothetical(delta):
        assert optimizer.query_cost_ms(_query()) < before_cost
    after_instance = ConfigurationInstance.capture(db)
    assert after_instance.indexes == before_instance.indexes
    assert optimizer.query_cost_ms(_query()) == pytest.approx(before_cost)


def test_hypothetical_nesting():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db)
    base = optimizer.query_cost_ms(_query())
    outer = ConfigurationDelta(
        [SetEncodingAction("events", "user", EncodingType.DICTIONARY)]
    )
    inner = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    with optimizer.hypothetical(outer):
        with optimizer.hypothetical(inner):
            nested = optimizer.query_cost_ms(_query())
            assert nested < base
    assert optimizer.query_cost_ms(_query()) == pytest.approx(base)


def test_hypothetical_does_not_touch_clock_or_counters():
    db = make_small_database(rows=2_000)
    optimizer = WhatIfOptimizer(db)
    clock = db.clock.now_ms
    reconfigs = db.counters.reconfigurations
    delta = ConfigurationDelta(
        [
            CreateIndexAction("events", ("user",)),
            MoveChunkAction("events", 0, StorageTier.NVM),
            SetKnobAction(SCAN_THREADS_KNOB, 4),
        ]
    )
    with optimizer.hypothetical(delta):
        optimizer.query_cost_ms(_query())
    assert db.clock.now_ms == clock
    assert db.counters.reconfigurations == reconfigs
    assert len(db.plan_cache) == 0


def test_cost_with_applies_and_reverts():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db)
    query = _query()
    key = query.template().key
    forecast = point_forecast({key: 2.0}, {key: query})
    delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    improved = optimizer.cost_with(delta, forecast.expected, {key: query})
    baseline = optimizer.scenario_cost_ms(forecast.expected, {key: query})
    assert improved < baseline
    assert db.index_bytes() == 0


# ----------------------------------------------------------------------
# the footprint-keyed cost cache


def test_cache_hits_on_repeated_pricing():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db)
    first = optimizer.query_cost_ms(_query())
    second = optimizer.query_cost_ms(_query())
    assert second == first
    stats = optimizer.cache_stats
    assert stats.misses == 1
    assert stats.hits == 1
    assert stats.size == 1
    assert stats.hit_rate == pytest.approx(0.5)


def test_cache_invalidated_by_accounted_config_change():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db)
    before = optimizer.query_cost_ms(_query())
    db.create_index("events", ["user"])
    after = optimizer.query_cost_ms(_query())
    # the index is in the query's footprint: fresh miss, fresh (cheaper) cost
    assert optimizer.cache_stats.misses == 2
    assert after < before


def test_cache_is_semantically_invisible():
    db_cached = make_small_database(rows=5_000)
    db_plain = make_small_database(rows=5_000)
    cached = WhatIfOptimizer(db_cached)
    plain = WhatIfOptimizer(db_plain, cache_size=0)

    def campaign(optimizer):
        delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])
        costs = [optimizer.query_cost_ms(_query())]
        for _ in range(2):
            with optimizer.hypothetical(delta):
                costs.append(optimizer.query_cost_ms(_query()))
            costs.append(optimizer.query_cost_ms(_query()))
        return costs

    assert campaign(cached) == pytest.approx(campaign(plain))
    assert cached.cache_stats.hits > 0
    assert plain.cache_stats.hits == 0


def test_cache_size_zero_disables_caching():
    db = make_small_database(rows=2_000)
    optimizer = WhatIfOptimizer(db, cache_size=0)
    optimizer.query_cost_ms(_query())
    optimizer.query_cost_ms(_query())
    stats = optimizer.cache_stats
    assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
    assert stats.hit_rate == 0.0


def test_cache_evicts_least_recently_used():
    db = make_small_database(rows=2_000)
    optimizer = WhatIfOptimizer(db, cache_size=1)
    other = Query("events", (Predicate("user", "=", 8),), aggregate="count")
    optimizer.query_cost_ms(_query())
    optimizer.query_cost_ms(other)  # evicts the first entry
    stats = optimizer.cache_stats
    assert stats.evictions == 1
    assert stats.size == 1
    optimizer.query_cost_ms(_query())  # evicted: priced again
    assert optimizer.cache_stats.misses == 3


def test_cache_reused_across_hypothetical_reentry():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db)
    delta = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    with optimizer.hypothetical(delta):
        optimizer.query_cost_ms(_query())
    misses = optimizer.cache_stats.misses
    with optimizer.hypothetical(delta):
        optimizer.query_cost_ms(_query())
    stats = optimizer.cache_stats
    assert stats.misses == misses  # same delta, same footprint: pure hit
    assert stats.hits >= 1


def test_cache_size_validation():
    db = make_small_database(rows=1_000)
    with pytest.raises(ValueError):
        WhatIfOptimizer(db, cache_size=-1)
    optimizer = WhatIfOptimizer(db)
    optimizer.query_cost_ms(_query())
    assert optimizer.cache_stats.size == 1
    assert optimizer.cache_size > 0
    assert optimizer.cache_stats.as_dict()["misses"] == 1.0


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                ("index_user",),
                ("index_id",),
                ("enc_dict",),
                ("enc_rle",),
                ("move_nvm",),
                ("knob",),
            ]
        ),
        min_size=1,
        max_size=4,
    )
)
def test_property_arbitrary_deltas_roll_back(actions_spec):
    db = make_small_database(rows=1_000, chunk_size=500)
    optimizer = WhatIfOptimizer(db)
    mapping = {
        ("index_user",): CreateIndexAction("events", ("user",)),
        ("index_id",): CreateIndexAction("events", ("id",)),
        ("enc_dict",): SetEncodingAction("events", "user", EncodingType.DICTIONARY),
        ("enc_rle",): SetEncodingAction("events", "id", EncodingType.RUN_LENGTH),
        ("move_nvm",): MoveChunkAction("events", 0, StorageTier.NVM),
        ("knob",): SetKnobAction(SCAN_THREADS_KNOB, 8),
    }
    # deduplicate index creations (the same index twice is invalid mid-delta)
    seen = set()
    actions = []
    for spec in actions_spec:
        if spec in seen:
            continue
        seen.add(spec)
        actions.append(mapping[spec])
    before = ConfigurationInstance.capture(db)
    with optimizer.hypothetical(ConfigurationDelta(actions)):
        pass
    after = ConfigurationInstance.capture(db)
    assert before.indexes == after.indexes
    assert before.encodings == after.encodings
    assert before.placements == after.placements
    assert before.knobs == after.knobs


# ----------------------------------------------------------------------
# batched pricing


def test_batch_query_costs_matches_sequential():
    """Batch pricing returns the same costs, cache contents, and counter
    totals as sequential query_cost_ms calls — duplicates within a batch
    miss once and hit after."""
    db_seq = make_small_database(rows=5_000)
    db_bat = make_small_database(rows=5_000)
    seq = WhatIfOptimizer(db_seq)
    bat = WhatIfOptimizer(db_bat)
    queries = [
        Query("events", (Predicate("user", "=", u),), aggregate="count")
        for u in range(6)
    ] * 2  # repeat: second half must be pure cache hits
    sequential = [seq.query_cost_ms(q) for q in queries]
    batched = bat.batch_query_costs(queries)
    assert batched == sequential
    assert bat.cache_stats == seq.cache_stats
    assert bat.cache_stats.hits == 6
    assert bat.cache_stats.misses == 6


def test_batch_query_costs_respects_cache_capacity():
    db = make_small_database(rows=5_000)
    optimizer = WhatIfOptimizer(db, cache_size=2)
    queries = [
        Query("events", (Predicate("user", "=", u),), aggregate="count")
        for u in range(4)
    ]
    optimizer.batch_query_costs(queries)
    stats = optimizer.cache_stats
    assert stats.size == 2
    assert stats.evictions == 2


def test_batch_query_costs_uncached_and_estimated():
    db = make_small_database(rows=2_000)
    plain = WhatIfOptimizer(db, cache_size=0)
    queries = [_query(), _query()]
    assert plain.batch_query_costs(queries) == [
        plain.query_cost_ms(q) for q in queries
    ]
    model = LogicalCostModel(db)
    estimated = WhatIfOptimizer(db, estimator=model)
    assert estimated.batch_query_costs(queries) == [
        model.estimate_query_ms(q) for q in queries
    ]


# ----------------------------------------------------------------------
# scenario coverage


def test_scenario_coverage_full():
    import warnings as _warnings

    from repro.kpi.metrics import WHATIF_SCENARIO_COVERAGE

    db = make_small_database(rows=2_000)
    optimizer = WhatIfOptimizer(db)
    forecast = point_forecast(
        {_query().template().key: 10.0}, {_query().template().key: _query()}
    )
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")  # full coverage must not warn
        optimizer.scenario_cost_ms(
            forecast.scenarios[0], forecast.sample_queries
        )
    assert optimizer.registry.read(WHATIF_SCENARIO_COVERAGE) == 1.0


def test_scenario_coverage_warns_on_missing_samples():
    from repro.kpi.metrics import WHATIF_SCENARIO_COVERAGE

    db = make_small_database(rows=2_000)
    optimizer = WhatIfOptimizer(db)
    query = _query()
    key = query.template().key
    frequencies = {key: 10.0, "tmpl-without-sample": 5.0, "zero-freq": 0.0}
    forecast = point_forecast(frequencies, {key: query})
    scenario = forecast.scenarios[0]
    with pytest.warns(RuntimeWarning, match="underestimates"):
        partial = optimizer.scenario_cost_ms(scenario, forecast.sample_queries)
    # zero-frequency templates don't count against coverage
    assert optimizer.registry.read(WHATIF_SCENARIO_COVERAGE) == 0.5
    # the priced half still contributes
    assert partial == pytest.approx(10.0 * optimizer.query_cost_ms(query))

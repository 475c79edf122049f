"""Tests for the cost-model and buffer-pool assessors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import DRAM_BYTES, INDEX_MEMORY
from repro.configuration.delta import ConfigurationDelta
from repro.cost.logical import LogicalCostModel
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.executor import QueryExecutor
from repro.dbms.knobs import BUFFER_POOL_KNOB, KnobRegistry, standard_knobs
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.errors import CatalogError, TuningError
from repro.fleet import build_fleet
from repro.forecasting.scenarios import (
    EXPECTED_SCENARIO,
    Forecast,
    WorkloadScenario,
)
from repro.tuning.assessment import Assessment
from repro.tuning.assessors import (
    BufferPoolAssessor,
    CostModelAssessor,
)
from repro.tuning.candidate import (
    EncodingCandidate,
    IndexCandidate,
    KnobCandidate,
)
from repro.util.units import MIB
from repro.workload import Query, build_retail_suite

from tests.conftest import make_forecast
from tests.fleet.test_golden import BINS, ROWS


def test_cost_model_assessor_measures_benefit_and_memory(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=["id_lookup"])
    assessor = CostModelAssessor(WhatIfOptimizer(db))
    candidates = [
        IndexCandidate("orders", ("id",)),
        IndexCandidate("orders", ("region",)),  # never filtered selectively
    ]
    before = ConfigurationInstance.capture(db)
    assessments = assessor.assess(candidates, db, forecast)
    assert ConfigurationInstance.capture(db).indexes == before.indexes
    id_lookup, region = assessments
    assert id_lookup.desirability["expected"] > 0
    assert id_lookup.desirability["worst_case"] > id_lookup.desirability["expected"]
    assert id_lookup.permanent_cost(INDEX_MEMORY) > 0
    assert id_lookup.one_time_cost_ms > 0
    assert id_lookup.confidence == pytest.approx(0.95)
    # an index nobody probes has (near) zero benefit but still costs memory
    assert region.desirability["expected"] <= id_lookup.desirability["expected"] / 2
    assert region.permanent_cost(INDEX_MEMORY) > 0


def test_cost_model_assessor_with_reset_baseline(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=["id_lookup"])
    db.create_index("orders", ["id"])
    assessor = CostModelAssessor(WhatIfOptimizer(db))
    candidate = IndexCandidate("orders", ("id",))
    # without reset, the existing index hides the candidate's benefit
    no_reset = assessor.assess([candidate], db, forecast)[0]
    assert no_reset.desirability["expected"] == pytest.approx(0.0, abs=1e-6)

    from repro.configuration.actions import DropIndexAction

    reset = ConfigurationDelta([DropIndexAction("orders", ("id",))])
    with_reset = assessor.assess([candidate], db, forecast, reset)[0]
    assert with_reset.desirability["expected"] > 0


def test_cost_model_assessor_estimator_confidence(retail_suite):
    db = retail_suite.database
    assessor = CostModelAssessor(WhatIfOptimizer(db, LogicalCostModel(db)))
    forecast = make_forecast(retail_suite, families=["status_count"])
    assessments = assessor.assess(
        [EncodingCandidate("orders", "status", EncodingType.DICTIONARY)],
        db,
        forecast,
    )
    assert assessments[0].confidence == pytest.approx(0.6)


def test_encoding_assessment_reports_memory_savings(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite, families=["status_count"])
    assessor = CostModelAssessor(WhatIfOptimizer(db))
    assessment = assessor.assess(
        [EncodingCandidate("orders", "status", EncodingType.DICTIONARY)],
        db,
        forecast,
    )[0]
    from repro.configuration.constraints import TOTAL_MEMORY

    assert assessment.permanent_cost(TOTAL_MEMORY) < 0  # compression saves
    assert assessment.desirability["expected"] > 0  # and scans get faster


def test_buffer_pool_assessor_rewards_capacity_when_data_is_cold(retail_suite):
    db = retail_suite.database
    for chunk_id in db.table("orders").chunk_ids():
        db.move_chunk("orders", chunk_id, StorageTier.SSD)
    forecast = make_forecast(retail_suite, families=["status_count", "region_revenue"])
    assessor = BufferPoolAssessor()
    small = KnobCandidate(BUFFER_POOL_KNOB, 0.0, "buffer_pool")
    big = KnobCandidate(BUFFER_POOL_KNOB, 512 * MIB, "buffer_pool")
    assessments = assessor.assess([small, big], db, forecast)
    zero, large = assessments
    assert large.desirability["expected"] > zero.desirability["expected"]
    assert large.permanent_cost(DRAM_BYTES) == 512 * MIB
    # production pool untouched
    assert db.executor.buffer_pool.capacity_bytes == db.knobs.get(BUFFER_POOL_KNOB)


def test_buffer_pool_assessor_rejects_other_candidates(retail_suite):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    with pytest.raises(TuningError):
        BufferPoolAssessor().assess(
            [IndexCandidate("orders", ("customer",))], db, forecast
        )


def _always_replay(assessor, candidates, db, forecast):
    """The assessment loop without the DRAM short-circuit: every capacity
    is replayed on scratch pools, wherever the data lives."""
    default = db.knobs.definition(BUFFER_POOL_KNOB).default
    baseline = {
        scenario.name: assessor._scenario_cost_with_pool(
            db, scenario, forecast, default
        )
        for scenario in forecast.scenarios
    }
    return [
        Assessment(
            candidate=candidate,
            desirability={
                scenario.name: baseline[scenario.name]
                - assessor._scenario_cost_with_pool(
                    db, scenario, forecast, candidate.value
                )
                for scenario in forecast.scenarios
            },
            confidence=0.85,
            permanent_costs={DRAM_BYTES: float(candidate.value)},
            one_time_cost_ms=ConfigurationDelta(
                candidate.actions()
            ).estimate_cost_ms(db),
        )
        for candidate in candidates
    ]


# orders: 3 chunks of 124 kB; inventory: 56 and 28 kB; 456 kB in all
_SMALL_RETAIL = dict(orders_rows=3_000, inventory_rows=1_500, chunk_size=1_000)
_PLACEMENT = {"orders": 3, "inventory": 2}
_FAMILIES = list(build_retail_suite(**_SMALL_RETAIL).families)
_DEFAULT_CAPACITY = (
    KnobRegistry(standard_knobs()).definition(BUFFER_POOL_KNOB).default
)

_tiers = st.sampled_from(list(StorageTier))
_placements = st.one_of(
    # every chunk on one tier: all-DRAM, all-NVM, all-SSD
    _tiers.map(lambda tier: {t: [tier] * n for t, n in _PLACEMENT.items()}),
    st.fixed_dictionaries(
        {
            table: st.lists(_tiers, min_size=n, max_size=n)
            for table, n in _PLACEMENT.items()
        }
    ),
)
_capacities = st.one_of(
    st.just(0.0),
    st.just(_DEFAULT_CAPACITY),
    st.just(2.0 * MIB),  # more than every chunk together
    st.integers(0, 455_000).map(float),  # holds some chunks: evictions
)
# per family: not forecast, forecast with frequency 0, or read
_roles = st.lists(
    st.sampled_from(["absent", "idle", "read"]),
    min_size=len(_FAMILIES),
    max_size=len(_FAMILIES),
)


def _forecast_with_roles(suite, roles):
    present = [(f, role) for f, role in zip(_FAMILIES, roles) if role != "absent"]
    forecast = make_forecast(suite, families=[f for f, _role in present])
    # make_forecast keys one query per family, in the suite's order
    idle = {
        key
        for key, (_f, role) in zip(forecast.sample_queries, present)
        if role == "idle"
    }
    assert len(forecast.sample_queries) == len(present)
    return Forecast(
        scenarios=tuple(
            WorkloadScenario(
                scenario.name,
                scenario.probability,
                {
                    key: 0.0 if key in idle else frequency
                    for key, frequency in scenario.frequencies.items()
                },
            )
            for scenario in forecast.scenarios
        ),
        horizon_bins=forecast.horizon_bins,
        bin_duration_ms=forecast.bin_duration_ms,
        sample_queries=forecast.sample_queries,
    )


@settings(max_examples=40, deadline=None)
@given(_placements, st.lists(_capacities, min_size=1, max_size=3), _roles)
def test_buffer_pool_assessor_equals_always_replaying(placement, values, roles):
    suite = build_retail_suite(**_SMALL_RETAIL)
    db = suite.database
    for table, tiers in placement.items():
        for chunk_id, tier in zip(db.table(table).chunk_ids(), tiers):
            db.move_chunk(table, chunk_id, tier)
    forecast = _forecast_with_roles(suite, roles)
    # warm the production pool so "untouched" covers its contents
    for query in forecast.sample_queries.values():
        db.execute(query)
    pool = db.executor.buffer_pool
    entries = list(pool._entries.items())
    capacity = pool.capacity_bytes
    candidates = [
        KnobCandidate(BUFFER_POOL_KNOB, value, "buffer_pool") for value in values
    ]
    assessor = BufferPoolAssessor()

    assessments = assessor.assess(candidates, db, forecast)

    assert db.executor.buffer_pool is pool
    assert pool.capacity_bytes == capacity
    assert list(pool._entries.items()) == entries
    # dataclass equality: field for field, desirability floats with ==
    assert assessments == _always_replay(assessor, candidates, db, forecast)


def _scratch_pool_swaps(monkeypatch, seed, cold_orders):
    """``swap_buffer_pool`` calls during a golden-configuration run."""
    calls = []
    swap = QueryExecutor.swap_buffer_pool

    def spy(executor, pool):
        calls.append(pool)
        return swap(executor, pool)

    fleet = build_fleet(1, seed=seed, bins=BINS, rows=ROWS)
    db = fleet.tenants[0].database
    if cold_orders:
        for chunk_id in db.table("orders").chunk_ids():
            db.move_chunk("orders", chunk_id, StorageTier.SSD)
    with monkeypatch.context() as patch:
        patch.setattr(QueryExecutor, "swap_buffer_pool", spy)
        report = fleet.run()
    assert report.total_full_passes >= 1
    return len(calls)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_buffer_pool_replays_only_when_the_forecast_reads_cold_data(
    monkeypatch, seed
):
    assert _scratch_pool_swaps(monkeypatch, seed, cold_orders=False) == 0
    assert _scratch_pool_swaps(monkeypatch, seed, cold_orders=True) > 0


@pytest.mark.parametrize("tier", [StorageTier.DRAM, StorageTier.SSD])
def test_buffer_pool_assessor_reports_a_forecast_query_on_an_unknown_table(
    retail_suite, tier
):
    db = retail_suite.database
    for chunk_id in db.table("orders").chunk_ids():
        db.move_chunk("orders", chunk_id, tier)
    known = next(iter(make_forecast(retail_suite).sample_queries.values()))
    ghost = Query("ghost", aggregate="count")
    queries = {q.template().key: q for q in (known, ghost)}
    forecast = Forecast(
        scenarios=(
            WorkloadScenario(
                EXPECTED_SCENARIO, 1.0, dict.fromkeys(queries, 1.0)
            ),
        ),
        horizon_bins=4,
        bin_duration_ms=60_000.0,
        sample_queries=queries,
    )
    candidate = KnobCandidate(BUFFER_POOL_KNOB, 0.0, "buffer_pool")
    with pytest.raises(CatalogError, match="table 'ghost' does not exist"):
        BufferPoolAssessor().assess([candidate], db, forecast)

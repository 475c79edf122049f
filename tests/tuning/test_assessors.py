"""Tests for the cost-model and buffer-pool assessors."""

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import DRAM_BYTES, INDEX_MEMORY
from repro.configuration.delta import ConfigurationDelta
from repro.cost.logical import LogicalCostModel
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.knobs import BUFFER_POOL_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.errors import TuningError
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

from tests.conftest import make_forecast


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

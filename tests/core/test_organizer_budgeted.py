"""Tests for the organizer's tuning-time budget (feature subsetting).

Section II-E (future work, implemented): "the organizer could also …
decide to only tune the subset of features which is expected to yield the
largest benefits to avoid wasting resources on unprofitable tunings."
"""

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.triggers import PeriodicTrigger
from repro.cost import WhatIfOptimizer
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB

from tests.conftest import make_organizer


def _prepared(retail_suite, tuning_time_budget_ms):
    db = retail_suite.database
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(5):
        for q in retail_suite.mix.sample_queries(25, seed=200 + i):
            db.execute(q)
        predictor.observe()
    optimizer = WhatIfOptimizer(db)
    organizer = make_organizer(
        predictor,
        [
            Tuner(IndexSelectionFeature(), optimizer),
            Tuner(CompressionFeature(), optimizer),
        ],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=1.0)],
        config=OrganizerConfig(
            horizon_bins=3,
            min_history_bins=3,
            tuning_time_budget_ms=tuning_time_budget_ms,
        ),
    )
    return organizer


def test_generous_budget_tunes_all_features(retail_suite):
    organizer = _prepared(retail_suite, tuning_time_budget_ms=1e9)
    report = organizer.tick()
    assert report is not None
    assert set(report.order) == {"index_selection", "compression"}
    assert report.skipped_features == ()
    # the finished event carries the pass's what-if cache statistics
    finished = organizer.events.latest(EventKind.TUNING_FINISHED)
    assert finished is not None
    for key in ("cache_hits", "cache_misses", "cache_evictions", "cache_hit_rate"):
        assert key in finished.data
    assert finished.data["cache_hits"] > 0  # re-pricing hit the cache


def test_tight_budget_skips_costly_features(retail_suite):
    # single tunings cost ~1 ms (compression) and ~1.6 ms (indexes):
    # a 2 ms budget admits one feature but not both
    organizer = _prepared(retail_suite, tuning_time_budget_ms=2.0)
    report = organizer.tick()
    assert report is not None
    assert len(report.order) < 2
    assert len(report.order) + len(report.skipped_features) == 2


def test_zero_budget_skips_the_pass_entirely(retail_suite):
    organizer = _prepared(retail_suite, tuning_time_budget_ms=0.0)
    report = organizer.tick()
    # a zero-feature pass does no work, so there is no report at all:
    # no configuration record, no cooldown restart, just a SKIP event
    assert report is None
    assert len(organizer.store) == 0
    assert organizer.last_tuning_ms is None
    skip = organizer.events.latest(EventKind.SKIP)
    assert skip is not None
    assert "no feature" in skip.message
    assert skip.data["skipped"] == 2
    assert organizer.events.latest(EventKind.TUNING_FINISHED) is None


def test_zero_budget_skip_does_not_consume_refresh_cadence(retail_suite):
    organizer = _prepared(retail_suite, tuning_time_budget_ms=0.0)
    organizer.tick()
    # the skipped pass must not count against the order-refresh cadence
    assert organizer._runs_since_refresh == 0

"""ROADMAP item 1a: a live organizer pass with ``buffer_pool`` under a
DRAM budget below the data.

On the base state the buffer pool has no feasible capacity: every
capacity costs DRAM, and the headroom next to the DRAM-resident chunks
is negative. A feature with no feasible candidate keeps its setting and
the pass goes on.
"""

from repro.configuration.config import ConfigurationInstance
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.triggers import NeverTrigger
from repro.cost import WhatIfOptimizer
from repro.dbms.knobs import BUFFER_POOL_KNOB
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.tuning import (
    BufferPoolFeature,
    IndexSelectionFeature,
    standard_features,
)
from repro.tuning.tuner import Tuner

from tests.conftest import make_dram_pressed_retail, make_organizer


def _organizer(features):
    suite, constraints = make_dram_pressed_retail()
    db = suite.database
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(4):
        for q in suite.mix.sample_queries(25, seed=100 + i):
            db.execute(q)
        predictor.observe()
    optimizer = WhatIfOptimizer(db)
    return db, make_organizer(
        predictor,
        [Tuner(feature, optimizer) for feature in features],
        constraints=constraints,
        triggers=[NeverTrigger()],
        config=OrganizerConfig(horizon_bins=3, min_history_bins=3),
    )


def test_item_1a_live_pass_commits_under_negative_dram_headroom():
    """The order refresh measures the five-feature matrix, where the
    pool is proposed on the base state, and the pass commits."""
    db, organizer = _organizer(standard_features(include_sort_order=True))
    before = ConfigurationInstance.capture(db)

    assert organizer.run_tuning() is not None

    assert "buffer_pool" in organizer.cached_order
    assert len(organizer.store) == 1
    assert organizer.last_tuning_ms is not None
    assert ConfigurationInstance.capture(db) != before
    kinds = [e.kind for e in organizer.events.events()]
    assert kinds[0] is EventKind.TUNING_STARTED
    assert kinds[-1] is EventKind.TUNING_FINISHED


def test_item_1a_an_infeasible_feature_keeps_its_setting():
    """Index selection leaves the chunks where they are, so the pool is
    infeasible at its turn in either order: the pass commits the
    indexes, the pool knob is unchanged, and one SKIP event names the
    feature and the reason."""
    db, organizer = _organizer([BufferPoolFeature(), IndexSelectionFeature()])
    pool = db.knobs.get(BUFFER_POOL_KNOB)

    organizer.run_tuning()

    assert db.knobs.get(BUFFER_POOL_KNOB) == pool
    assert organizer.store.latest().features == ("index_selection",)
    skips = [e for e in organizer.events.events() if e.kind is EventKind.SKIP]
    assert len(skips) == 1
    assert "buffer_pool" in skips[0].message
    assert skips[0].data["feature"] == "buffer_pool"
    assert skips[0].data["reason"] == (
        "greedy repair cannot satisfy budgets: dram_bytes over by 515400"
    )

"""ROADMAP item 1a, pinned: a live organizer pass with ``buffer_pool``
under a DRAM budget below the data.

The pass's first order refresh measures dependencies, the buffer-pool
proposal on the base state has no feasible capacity, and the
``SelectionError`` leaves the pass: nothing is applied, recorded or
cached, and the pass's start event is the only trace. This records
today's behaviour; item 1a is the change that flips it.
"""

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.core.events import EventKind
from repro.core.organizer import Organizer, OrganizerConfig
from repro.core.triggers import NeverTrigger
from repro.errors import SelectionError
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.tuning import standard_features
from repro.tuning.tuner import Tuner

from tests.conftest import make_dram_pressed_retail


def test_item_1a_live_pass_raises_and_leaves_the_database_untouched():
    suite, constraints = make_dram_pressed_retail()
    db = suite.database
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(4):
        for q in suite.mix.sample_queries(25, seed=100 + i):
            db.execute(q)
        predictor.observe()
    organizer = Organizer(
        db,
        predictor,
        [
            Tuner(feature, db)
            for feature in standard_features(include_sort_order=True)
        ],
        constraints=constraints,
        triggers=[NeverTrigger()],
        config=OrganizerConfig(horizon_bins=3, min_history_bins=3),
    )
    before = ConfigurationInstance.capture(db)
    now_ms = db.clock.now_ms

    with pytest.raises(
        SelectionError,
        match="greedy repair cannot satisfy budgets: dram_bytes over by 515400",
    ):
        organizer.run_tuning()

    assert ConfigurationInstance.capture(db) == before
    assert db.clock.now_ms == now_ms
    assert len(organizer.store) == 0
    assert organizer.cached_order is None
    assert organizer.last_tuning_ms is None
    assert [e.kind for e in organizer.events.events()] == [
        EventKind.TUNING_STARTED
    ]

"""ROADMAP item 1a, pinned: dependence measurement with ``buffer_pool``
under a DRAM budget below the data.

``BufferPoolFeature`` gives the pool the DRAM headroom next to the
DRAM-resident chunks. On E1's base state that headroom is negative, so
every pool capacity is infeasible and the greedy repair raises. This
records today's behaviour; item 1a (a feature with no feasible candidate
proposes no change) is the change that flips it.
"""

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.errors import SelectionError
from repro.ordering.recursive import RecursiveTuningPlanner
from repro.tuning import standard_features
from repro.tuning.tuner import Tuner

from tests.conftest import make_dram_pressed_retail, make_forecast


def test_item_1a_measure_dependencies_raises_under_negative_dram_headroom():
    suite, constraints = make_dram_pressed_retail()
    db = suite.database
    tuners = [
        Tuner(feature, db)
        for feature in standard_features(include_sort_order=True)
    ]
    planner = RecursiveTuningPlanner(db, tuners, constraints)
    before = ConfigurationInstance.capture(db)
    with pytest.raises(
        SelectionError,
        match="greedy repair cannot satisfy budgets: dram_bytes over by 515400",
    ):
        planner.measure_dependencies(make_forecast(suite))
    assert ConfigurationInstance.capture(db) == before

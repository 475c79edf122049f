"""ROADMAP item 1a: dependence measurement with ``buffer_pool`` under a
DRAM budget below the data.

``BufferPoolFeature`` gives the pool the DRAM headroom next to the
DRAM-resident chunks. On E1's base state that headroom is negative, so
every pool capacity is infeasible. A feature with no feasible candidate
proposes no change, so the matrix is measured: the pool keeps its
setting on the reset baseline and its single run costs nothing.
"""

from repro.configuration.config import ConfigurationInstance
from repro.cost.what_if import WhatIfOptimizer
from repro.ordering.recursive import RecursiveTuningPlanner
from repro.tuning import standard_features
from repro.tuning.tuner import Tuner

from tests.conftest import make_dram_pressed_retail, make_forecast


def test_item_1a_measures_the_matrix_under_negative_dram_headroom():
    suite, constraints = make_dram_pressed_retail()
    db = suite.database
    optimizer = WhatIfOptimizer(db)
    tuners = [
        Tuner(feature, optimizer)
        for feature in standard_features(include_sort_order=True)
    ]
    planner = RecursiveTuningPlanner(tuners, constraints)
    before = ConfigurationInstance.capture(db)

    matrix = planner.measure(make_forecast(suite))

    assert matrix.features == tuple(sorted(t.feature_name for t in tuners))
    assert "buffer_pool" in matrix.features
    assert len(matrix.w_pair) == 5 * 4
    assert matrix.tuning_cost_ms["buffer_pool"] == 0.0
    assert ConfigurationInstance.capture(db) == before

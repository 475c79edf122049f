"""Tests for the driver's fast-assessment mode (learned-model tuning)."""

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.core.driver import Driver, DriverConfig
from repro.core.organizer import OrganizerConfig
from repro.core.triggers import NeverTrigger
from repro.cost import WhatIfOptimizer
from repro.tuning import CompressionFeature, IndexSelectionFeature
from repro.util.units import MIB

from tests.conftest import make_forecast


def _driver(fast):
    return Driver(
        [IndexSelectionFeature(), CompressionFeature()],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
        triggers=[NeverTrigger()],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3),
            fast_assessment=fast,
        ),
    )


def _warm_up(suite, driver):
    db = suite.database
    db.plugin_host.attach(driver)
    for i in range(4):
        for q in suite.mix.sample_queries(20, seed=300 + i):
            db.execute(q)
        db.plugin_host.tick(db.clock.now_ms)


def test_fast_mode_maintains_a_model_and_tunes(retail_suite):
    driver = _driver(fast=True)
    _warm_up(retail_suite, driver)
    assert driver.context.cost_maintenance is not None
    assert driver.context.cost_maintenance.model.is_fitted
    assert driver.context.cost_maintenance.observations_harvested > 0

    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    optimizer = WhatIfOptimizer(db)
    before = optimizer.scenario_cost_ms(
        forecast.expected, dict(forecast.sample_queries)
    )
    report = driver.tune_now()
    after = optimizer.scenario_cost_ms(
        forecast.expected, dict(forecast.sample_queries)
    )
    assert report.tuning.initial_cost_ms >= report.tuning.final_cost_ms
    assert after <= before  # learned-model tuning never makes things worse here


def test_default_mode_has_no_maintenance(retail_suite):
    driver = _driver(fast=False)
    _warm_up(retail_suite, driver)
    assert driver.context.cost_maintenance is None


def test_fast_mode_keeps_specialised_assessors(retail_suite):
    from repro.tuning import BufferPoolFeature
    from repro.tuning.assessors import BufferPoolAssessor

    driver = Driver(
        [BufferPoolFeature()],
        triggers=[NeverTrigger()],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=2, min_history_bins=2),
            fast_assessment=True,
        ),
    )
    retail_suite.database.plugin_host.attach(driver)
    # the buffer-pool tuner must still carry its scratch-pool assessor
    assert isinstance(driver.context.tuners[0]._assessor, BufferPoolAssessor)

"""Integration tests: the full Figure-1 pipeline in a closed loop."""

from repro import (
    ClosedLoopSimulation,
    ConstraintSet,
    Driver,
    DriverConfig,
    OrganizerConfig,
    ResourceBudget,
)
from repro.configuration import INDEX_MEMORY
from repro.configuration.config import ConfigurationInstance
from repro.core import EventKind, PeriodicTrigger
from repro.tuning import CompressionFeature, IndexSelectionFeature
from repro.util.units import MIB
from repro.workload import apply_shift, build_retail_suite, generate_trace


def _setup(n_bins=14, shift_at=None):
    suite = build_retail_suite(
        orders_rows=15_000, inventory_rows=4_000, chunk_size=8_192
    )
    trace = generate_trace(
        suite.families, suite.rates, n_bins, bin_duration_ms=60_000, seed=21
    )
    if shift_at is not None:
        trace = apply_shift(trace, shift_at, {"point_customer": 5.0})
    driver = Driver(
        [IndexSelectionFeature(), CompressionFeature()],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=6 * 60_000)],
        config=DriverConfig(
            organizer=OrganizerConfig(
                horizon_bins=3, min_history_bins=3, cooldown_ms=5 * 60_000
            )
        ),
    )
    suite.database.plugin_host.attach(driver)
    return suite, trace, driver


def test_closed_loop_tunes_and_improves():
    suite, trace, driver = _setup()
    sim = ClosedLoopSimulation(suite.database, trace, seed=4)
    records = sim.run()
    tuned_bins = [r for r in records if r.reconfigured]
    assert tuned_bins, "the driver never tuned"
    finished = driver.context.events.events(EventKind.TUNING_FINISHED)
    assert finished
    # later passes may be no-ops once the configuration has converged
    assert all(e.data["improvement"] >= 0 for e in finished)
    assert any(e.data["improvement"] > 0 for e in finished)
    early = sum(r.mean_query_ms for r in records[:3]) / 3
    late = sum(r.mean_query_ms for r in records[-3:]) / 3
    assert late < early
    # feedback loop: one record per pass, with both predictions and
    # measurements for the pass and for each of its tuned features
    assert len(driver.context.store) == len(finished)
    overall = driver.context.store.history()[0]
    assert overall.predicted_benefit_ms is not None
    assert overall.measured_benefit_ms is not None
    assert {o.feature for o in overall.outcomes} == {
        "index_selection",
        "compression",
    }
    assert len(driver.context.store.feedback("compression")) == len(finished)
    # budget respected throughout
    assert suite.database.index_bytes() <= 1 * MIB


def test_closed_loop_reacts_to_workload_shift():
    suite, trace, driver = _setup(n_bins=16, shift_at=8)
    sim = ClosedLoopSimulation(suite.database, trace, seed=4)
    records = sim.run()
    tuned_bins = [r.index for r in records if r.reconfigured]
    # at least one tuning before and one after the shift
    assert any(i < 8 for i in tuned_bins)
    assert any(i >= 8 for i in tuned_bins)


def test_driver_detach_preserves_configuration():
    suite, trace, driver = _setup(n_bins=8)
    db = suite.database
    ClosedLoopSimulation(db, trace, seed=1).run()
    tuned_instance = ConfigurationInstance.capture(db)
    db.plugin_host.detach("self-driving")
    preserved = ConfigurationInstance.capture(db)
    assert preserved.indexes == tuned_instance.indexes
    assert preserved.encodings == tuned_instance.encodings
    # database still serves queries
    result = db.execute("SELECT COUNT(*) FROM orders")
    assert result.aggregate_value == 15_000.0


def test_what_if_probes_leave_no_trace_in_closed_loop():
    suite, trace, driver = _setup(n_bins=8)
    db = suite.database
    ClosedLoopSimulation(db, trace, seed=1).run()
    # plan cache only contains real workload templates (probe executions
    # and dependence measurements never record)
    workload_keys = {f.template_key for f in suite.families.values()}
    cached = {entry.template.key for entry in db.plan_cache.entries()}
    assert cached <= workload_keys

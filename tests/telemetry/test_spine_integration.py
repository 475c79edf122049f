"""End-to-end: one driver, one telemetry spine, a deep span tree.

The acceptance bar for the telemetry spine: a full ``Driver.tune_now()``
pass yields a span tree with at least three nesting levels (tuning pass
-> feature -> tuner phase), the deprecated monitor shim still works, and
SKIP decisions surface as structured events.
"""

from repro.core.driver import Driver, DriverConfig
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.simulation import ClosedLoopSimulation
from repro.core.triggers import NeverTrigger, PeriodicTrigger
from repro.telemetry import TelemetryConfig, read_jsonl
from repro.tuning import standard_features
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.workload import generate_trace
from tests.conftest import make_retail_suite


def _attach(retail_suite, **telemetry_kwargs):
    db = retail_suite.database
    driver = Driver(
        [IndexSelectionFeature(), CompressionFeature()],
        triggers=[NeverTrigger()],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3),
            telemetry=TelemetryConfig(**telemetry_kwargs),
        ),
    )
    db.plugin_host.attach(driver)
    return db, driver


def _warm_up(retail_suite, db, driver, bins=4, per_bin=25):
    for i in range(bins):
        for q in retail_suite.mix.sample_queries(per_bin, seed=100 + i):
            db.execute(q)
        driver.on_tick(db.clock.now_ms)


def test_tune_now_produces_a_three_level_span_tree(retail_suite):
    db, driver = _attach(retail_suite)
    _warm_up(retail_suite, db, driver)
    report = driver.tune_now()
    assert report is not None

    span = driver.context.telemetry.tracer.last_root("tuning_pass")
    assert span is not None
    assert span.max_depth >= 3
    assert span.tags["trigger"] == "manual"
    feature = span.find("feature")
    assert feature is not None
    for phase in ("enumerate", "assess", "select", "execute"):
        assert feature.find(phase) is not None, phase
    # cache accounting now comes from registry interval deltas
    assert span.tags["cache_misses"] > 0

    # one registry per stack, the database's: it carries executor,
    # what-if and planner counters alike
    registry = driver.context.telemetry.registry
    assert registry is db.registry
    assert registry.read("exec_queries") > 0
    assert registry.read("whatif_cache_misses") > 0
    assert registry.read("plan_compiles") > 0


def test_telemetry_costs_no_simulated_time(tmp_path):
    """Spans read the host clock and counters are plain additions: with
    every served query sampled into a JSONL export, or none sampled and
    nothing exported, every bin record — workload, reconfiguration and
    clock milliseconds, a forced tuning pass included — is the same."""

    def run(**telemetry_kwargs):
        suite = make_retail_suite()
        db, driver = _attach(suite, **telemetry_kwargs)
        trace = generate_trace(
            suite.families, suite.rates, 10, bin_duration_ms=60_000, seed=33
        )
        sim = ClosedLoopSimulation(db, trace, seed=9)
        records = sim.run(stop=5)
        assert driver.tune_now() is not None
        assert db.counters.reconfigurations > 0
        records += sim.run(start=5)
        driver.context.telemetry.close()
        return records, db.clock.now_ms

    sampled = run(query_sample_every=1, jsonl_path=tmp_path / "run.jsonl")
    assert sampled == run(query_sample_every=0)


def test_skip_decisions_are_structured_events(retail_suite, tmp_path):
    path = tmp_path / "telemetry.jsonl"
    db, driver = _attach(retail_suite, jsonl_path=path)
    # no warm-up: not enough history bins yet
    driver.on_tick(db.clock.now_ms)
    assert driver.context.organizer.tick() is None
    skip = driver.context.events.latest(EventKind.SKIP)
    assert skip is not None
    assert "history bins" in skip.message
    assert skip.data["required_bins"] == 3
    assert skip.data["history_bins"] < 3
    # and the event was exported as a structured record
    driver.context.telemetry.close()
    kinds = [r["kind"] for r in read_jsonl(path) if r["type"] == "event"]
    assert "skip" in kinds


def test_detach_unbinds_executor_telemetry(retail_suite):
    db, driver = _attach(retail_suite)
    _warm_up(retail_suite, db, driver, bins=1, per_bin=5)
    before = driver.context.telemetry.registry.read("exec_queries")
    assert before > 0
    db.plugin_host.detach(driver.name)
    for q in retail_suite.mix.sample_queries(5, seed=1):
        db.execute(q)
    assert driver.context.telemetry.registry.read("exec_queries") == before


def test_exec_counters_equal_the_runtime_counters_after_tuning():
    """A served query is counted where it is served: what the tuners
    replay on the executor while assessing (the buffer-pool assessor's
    scratch-pool runs) is not serving, so after a run with tuning passes
    the telemetry ``exec_*`` counters and ``Database.counters`` agree."""
    suite = make_retail_suite()
    db = suite.database
    assert db.counters.queries_executed == 0
    driver = Driver(
        standard_features(),
        triggers=[PeriodicTrigger(every_ms=3 * 60_000.0)],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3)
        ),
    )
    db.plugin_host.attach(driver)
    trace = generate_trace(
        suite.families, suite.rates, 10, bin_duration_ms=60_000, seed=33
    )
    ClosedLoopSimulation(db, trace, seed=9).run()
    passes = driver.context.events.events(EventKind.TUNING_FINISHED)
    assert len(passes) >= 2

    registry = driver.context.telemetry.registry
    counters = db.counters
    assert registry.read("exec_queries") == counters.queries_executed
    assert registry.read("exec_elapsed_sim_ms") == counters.total_query_ms
    assert registry.read("exec_buffer_hits") == counters.buffer_hits
    assert registry.read("exec_buffer_misses") == counters.buffer_misses

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.configuration.constraints import (
    DRAM_BYTES,
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.configuration.store import ConfigurationInstanceStorage
from repro.core.events import EventLog
from repro.core.organizer import Organizer
from repro.core.simulation import BinRecord, ClosedLoopSimulation
from repro.dbms import Database, DataType, TableSchema
from repro.errors import ActionError
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.telemetry import Telemetry
from repro.tuning.executors import SequentialExecutor
from repro.forecasting.scenarios import (
    EXPECTED_SCENARIO,
    WORST_CASE_SCENARIO,
    Forecast,
    WorkloadScenario,
)
from repro.util.units import MIB
from repro.workload.benchmarks import BenchmarkSuite, build_retail_suite
from repro.workload.trace import generate_trace


def make_small_database(
    rows: int = 5_000,
    chunk_size: int = 1_000,
    seed: int = 0,
) -> Database:
    """A small single-table database for unit tests."""
    db = Database()
    schema = TableSchema.build(
        "events",
        [
            ("id", DataType.INT),
            ("user", DataType.INT),
            ("kind", DataType.STRING),
            ("value", DataType.FLOAT),
        ],
    )
    table = db.create_table(schema, target_chunk_size=chunk_size)
    rng = np.random.default_rng(seed)
    table.append(
        {
            "id": np.arange(rows),
            "user": rng.integers(0, 100, rows),
            "kind": rng.choice(["view", "click", "buy"], rows, p=[0.7, 0.25, 0.05]),
            "value": rng.uniform(0, 10, rows),
        }
    )
    return db


def make_forecast(
    suite: BenchmarkSuite,
    frequency: float = 10.0,
    worst_multiplier: float = 2.0,
    families: list[str] | None = None,
) -> Forecast:
    """A deterministic two-scenario forecast built directly from a suite
    (no predictor run needed — fast and reproducible)."""
    rng = np.random.default_rng(12345)
    sample_queries = {}
    frequencies = {}
    for name, family in suite.families.items():
        if families is not None and name not in families:
            continue
        query = family.sample(rng)
        key = query.template().key
        sample_queries[key] = query
        frequencies[key] = frequency
    worst = {key: value * worst_multiplier for key, value in frequencies.items()}
    return Forecast(
        scenarios=(
            WorkloadScenario(EXPECTED_SCENARIO, 0.7, frequencies),
            WorkloadScenario(WORST_CASE_SCENARIO, 0.3, worst),
        ),
        horizon_bins=4,
        bin_duration_ms=60_000.0,
        sample_queries=sample_queries,
    )


class ScriptedInjector:
    """Duck-typed fault injector failing per a fixed outcome script.

    Each ``before_apply`` call consumes the next outcome: ``"ok"``,
    ``"transient"``, or ``"permanent"``; an exhausted script means "ok".
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def before_apply(self, action):
        outcome = self.outcomes.pop(0) if self.outcomes else "ok"
        if outcome == "transient":
            raise ActionError(
                "scripted transient", action=action.describe(), transient=True
            )
        if outcome == "permanent":
            raise ActionError(
                "scripted permanent", action=action.describe(), transient=False
            )


@pytest.fixture
def small_db() -> Database:
    return make_small_database()


def make_retail_suite() -> BenchmarkSuite:
    """A compact retail suite (for tests that compare two runs)."""
    return build_retail_suite(
        orders_rows=20_000, inventory_rows=5_000, chunk_size=8_192
    )


def make_dram_pressed_retail():
    """Experiment E1's setup: a 25k/6k-row retail suite in 8,192-row
    chunks with a 1 MiB index budget and a DRAM budget at 85% of the
    data. Returns ``(suite, constraints)``."""
    suite = build_retail_suite(
        orders_rows=25_000, inventory_rows=6_000, chunk_size=8_192
    )
    data_bytes = sum(
        chunk.memory_bytes()
        for table in suite.database.catalog.tables()
        for chunk in table.chunks()
    )
    constraints = ConstraintSet(
        [
            ResourceBudget(INDEX_MEMORY, 1 * MIB),
            ResourceBudget(DRAM_BYTES, int(0.85 * data_bytes)),
        ]
    )
    return suite, constraints


def make_organizer(
    predictor, tuners, monitor=None, executor=None, **kwargs
) -> Organizer:
    """An organizer over ``tuners`` with the rest of its stack built
    fresh, as ``TenantContext.wire`` builds one: a telemetry spine on the
    registry of the tuners' what-if optimizer (so a pass reads its cache
    counters), a KPI monitor on that registry, an empty store and event
    log, and an executor on the spine. ``monitor`` and ``executor``
    replace the fresh ones; ``kwargs`` go to the organizer."""
    optimizer = tuners[0].optimizer
    db = optimizer.database
    telemetry = Telemetry(db.clock, registry=optimizer.registry)
    return Organizer(
        predictor,
        tuners,
        telemetry=telemetry,
        monitor=(
            monitor
            if monitor is not None
            else RuntimeKPIMonitor(db, registry=telemetry.registry)
        ),
        store=ConfigurationInstanceStorage(),
        events=EventLog(),
        executor=(
            executor
            if executor is not None
            else SequentialExecutor(telemetry=telemetry)
        ),
        **kwargs,
    )


def run_closed_loop(
    driver, bins: int, trace_seed: int, sim_seed: int, mutate_trace=None
) -> list[BinRecord]:
    """Replay a seeded ``bins``-bin retail trace (optionally transformed
    by ``mutate_trace(suite, trace)``) against a fresh compact suite with
    ``driver`` attached; returns the bin records."""
    suite = make_retail_suite()
    trace = generate_trace(
        suite.families, suite.rates, bins, bin_duration_ms=60_000,
        seed=trace_seed,
    )
    if mutate_trace is not None:
        trace = mutate_trace(suite, trace)
    suite.database.plugin_host.attach(driver)
    return ClosedLoopSimulation(suite.database, trace, seed=sim_seed).run()


@pytest.fixture
def retail_suite() -> BenchmarkSuite:
    """A fresh suite per test; function-scoped because tests mutate it."""
    return make_retail_suite()


@pytest.fixture
def retail_forecast(retail_suite: BenchmarkSuite) -> Forecast:
    return make_forecast(retail_suite)

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbms import Database, DataType, TableSchema
from repro.errors import ActionError
from repro.forecasting.scenarios import (
    EXPECTED_SCENARIO,
    WORST_CASE_SCENARIO,
    Forecast,
    WorkloadScenario,
)
from repro.workload.benchmarks import BenchmarkSuite, build_retail_suite


def make_small_database(
    rows: int = 5_000,
    chunk_size: int = 1_000,
    seed: int = 0,
    plan_cache_capacity: int = 1024,
) -> Database:
    """A small single-table database for unit tests."""
    db = Database(plan_cache_capacity=plan_cache_capacity)
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
        return 0.0

    def probe_spike_ms(self):
        return 0.0


@pytest.fixture
def small_db() -> Database:
    return make_small_database()


@pytest.fixture
def retail_suite() -> BenchmarkSuite:
    """A compact retail suite; function-scoped because tests mutate it."""
    return build_retail_suite(
        orders_rows=20_000, inventory_rows=5_000, chunk_size=8_192
    )


@pytest.fixture
def retail_forecast(retail_suite: BenchmarkSuite) -> Forecast:
    return make_forecast(retail_suite)

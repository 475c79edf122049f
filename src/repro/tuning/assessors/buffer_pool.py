"""Specialised assessor for the buffer-pool-size knob.

Probe-mode what-if execution cannot see buffer-pool benefits: probing never
admits chunks, so a larger pool looks worthless. This assessor instead
installs a *scratch* pool of the candidate capacity, replays the expected
workload once to warm it (accesses admit and evict normally), then measures
a second pass — a steady-state estimate of the candidate — and finally
restores the production pool untouched.

A capacity is measured only when a chunk the forecast reads is off DRAM;
otherwise every desirability is exactly 0.0 and nothing is replayed.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.configuration.constraints import DRAM_BYTES
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.dbms.executor import BufferPool
from repro.dbms.knobs import BUFFER_POOL_KNOB
from repro.errors import TuningError
from repro.forecasting.scenarios import Forecast, WorkloadScenario
from repro.tuning.assessment import Assessment
from repro.tuning.assessors.base import Assessor
from repro.tuning.candidate import Candidate, KnobCandidate
from repro.workload.query import Query

#: a warmed scratch pool's steady state estimates the capacity's benefit
CONFIDENCE = 0.85


def _replayed(
    scenario: WorkloadScenario, forecast: Forecast
) -> Iterator[tuple[Query, float]]:
    """``(query, frequency)`` of every scenario entry a replay runs."""
    for key, frequency in scenario.frequencies.items():
        query = forecast.sample_queries.get(key)
        if query is None or frequency <= 0:
            continue
        yield query, frequency


class BufferPoolAssessor(Assessor):
    """Measures buffer-pool capacities with warmed scratch pools."""

    supports_reassessment = False

    def _scenario_cost_with_pool(
        self,
        db: Database,
        scenario: WorkloadScenario,
        forecast: Forecast,
        capacity: float,
    ) -> float:
        scratch = BufferPool(capacity)
        previous = db.executor.swap_buffer_pool(scratch)
        try:
            # pass 1: warm the scratch pool (results discarded)
            for query, _frequency in _replayed(scenario, forecast):
                db.executor.execute(query, db.table(query.table))
            # pass 2: steady-state measurement
            total = 0.0
            for query, frequency in _replayed(scenario, forecast):
                result = db.executor.execute(query, db.table(query.table))
                total += frequency * result.report.elapsed_ms
            return total
        finally:
            db.executor.swap_buffer_pool(previous)

    def assess(
        self,
        candidates: list[Candidate],
        db: Database,
        forecast: Forecast,
        reset_delta: ConfigurationDelta | None = None,
    ) -> list[Assessment]:
        for candidate in candidates:
            if not (
                isinstance(candidate, KnobCandidate)
                and candidate.name == BUFFER_POOL_KNOB
            ):
                raise TuningError(
                    "BufferPoolAssessor only assesses buffer_pool_bytes "
                    f"candidates, got {candidate.describe()}"
                )
        del reset_delta  # the scratch pool itself is the reset baseline

        # only chunks off DRAM consult the pool (the kernel's tier pass): if
        # the replay reads none, every capacity prices alike, bit for bit
        measured = any(
            db.table(query.table).nondram()
            for scenario in forecast.scenarios
            for query, _frequency in _replayed(scenario, forecast)
        )
        if measured:
            default_capacity = db.knobs.definition(BUFFER_POOL_KNOB).default
            baseline = {
                scenario.name: self._scenario_cost_with_pool(
                    db, scenario, forecast, default_capacity
                )
                for scenario in forecast.scenarios
            }

        assessments = []
        for candidate in candidates:
            desirability = {}
            for scenario in forecast.scenarios:
                desirability[scenario.name] = (
                    baseline[scenario.name]
                    - self._scenario_cost_with_pool(
                        db, scenario, forecast, candidate.value
                    )
                    if measured
                    else 0.0
                )
            assessments.append(
                Assessment(
                    candidate=candidate,
                    desirability=desirability,
                    confidence=CONFIDENCE,
                    # the pool reserves DRAM for as long as the knob is set
                    permanent_costs={DRAM_BYTES: float(candidate.value)},
                    one_time_cost_ms=ConfigurationDelta(
                        candidate.actions()
                    ).estimate_cost_ms(db),
                )
            )
        return assessments

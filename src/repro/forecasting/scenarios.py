"""Forecast scenarios: expected, worst-case, and named alternatives.

Section II-C: "not only the expected workload should be incorporated but
also information about the distribution of potential future scenarios to
allow the computation of robust configurations." A :class:`Forecast` is a
small discrete distribution over :class:`WorkloadScenario` objects, each a
frequency vector per query template over the forecast horizon, plus one
representative concrete query per template for cost estimation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ForecastError
from repro.workload.query import Query

EXPECTED_SCENARIO = "expected"
WORST_CASE_SCENARIO = "worst_case"


@dataclass(frozen=True)
class WorkloadScenario:
    """One possible future: expected executions per template over the horizon."""

    name: str
    probability: float
    #: template key → expected executions over the forecast horizon
    frequencies: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ForecastError(
                f"scenario {self.name!r}: probability {self.probability} "
                "outside [0, 1]"
            )
        for key, frequency in self.frequencies.items():
            if frequency < 0:
                raise ForecastError(
                    f"scenario {self.name!r}: negative frequency for {key!r}"
                )

    @property
    def total_executions(self) -> float:
        return float(sum(self.frequencies.values()))

    def frequency(self, template_key: str) -> float:
        return float(self.frequencies.get(template_key, 0.0))


@dataclass(frozen=True)
class Forecast:
    """A discrete distribution over workload scenarios for one horizon."""

    scenarios: tuple[WorkloadScenario, ...]
    horizon_bins: int
    bin_duration_ms: float
    #: template key → a concrete recent query usable for cost estimation
    sample_queries: Mapping[str, Query] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ForecastError("a forecast needs at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ForecastError(f"duplicate scenario names: {names}")
        total = sum(s.probability for s in self.scenarios)
        if abs(total - 1.0) > 1e-6:
            raise ForecastError(f"scenario probabilities sum to {total}, not 1")
        if EXPECTED_SCENARIO not in names:
            raise ForecastError("a forecast must contain an 'expected' scenario")

    @property
    def expected(self) -> WorkloadScenario:
        return self.scenario(EXPECTED_SCENARIO)

    def scenario(self, name: str) -> WorkloadScenario:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise ForecastError(f"no scenario named {name!r}")

    @property
    def scenario_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.scenarios)

    def mean_frequencies(self) -> dict[str, float]:
        """Probability-weighted frequencies across scenarios."""
        mean: dict[str, float] = {}
        for s in self.scenarios:
            for key, frequency in s.frequencies.items():
                mean[key] = mean.get(key, 0.0) + s.probability * frequency
        return mean


def reduce_templates(forecast: Forecast, max_templates: int) -> Forecast:
    """Shrink a forecast to its ``max_templates`` heaviest templates.

    Section III-A: "the estimation of workload costs for many combinations
    and large workloads can become expensive. Decreasing the workload size
    … can mitigate this problem in exchange for possibly less accuracy."
    Templates are ranked by probability-weighted frequency mass; the kept
    templates' frequencies are rescaled so each scenario's total execution
    mass is preserved (the reduced workload represents the full one). A
    scenario whose mass falls entirely on dropped templates keeps its
    total too: its executions are redistributed over the kept templates
    proportionally to their global mass (uniformly if that is zero), so
    no scenario silently becomes empty.
    """
    if max_templates < 1:
        raise ForecastError("max_templates must be at least 1")
    mass = forecast.mean_frequencies()
    keep = set(
        sorted(mass, key=lambda key: mass[key], reverse=True)[:max_templates]
    )
    if len(mass) <= max_templates:
        return forecast
    kept_mass_total = sum(mass[key] for key in keep)
    scenarios = []
    for scenario in forecast.scenarios:
        total = scenario.total_executions
        kept = {
            key: frequency
            for key, frequency in scenario.frequencies.items()
            if key in keep
        }
        kept_total = sum(kept.values())
        if kept_total > 0:
            scale = total / kept_total
            reduced = {key: frequency * scale for key, frequency in kept.items()}
        elif total > 0:
            # every frequency of this scenario fell on dropped templates;
            # spread its mass over the kept ones instead of losing it
            if kept_mass_total > 0:
                reduced = {
                    key: total * mass[key] / kept_mass_total for key in keep
                }
            else:
                reduced = {key: total / len(keep) for key in keep}
        else:
            reduced = {}
        scenarios.append(
            WorkloadScenario(
                scenario.name,
                scenario.probability,
                reduced,
            )
        )
    return Forecast(
        scenarios=tuple(scenarios),
        horizon_bins=forecast.horizon_bins,
        bin_duration_ms=forecast.bin_duration_ms,
        sample_queries={
            key: query
            for key, query in forecast.sample_queries.items()
            if key in keep
        },
    )


def point_forecast(
    frequencies: Mapping[str, float],
    sample_queries: Mapping[str, Query],
    horizon_bins: int = 1,
    bin_duration_ms: float = 60_000.0,
) -> Forecast:
    """A single-scenario forecast; handy for tests and direct tuner calls."""
    return Forecast(
        scenarios=(
            WorkloadScenario(EXPECTED_SCENARIO, 1.0, dict(frequencies)),
        ),
        horizon_bins=horizon_bins,
        bin_duration_ms=bin_duration_ms,
        sample_queries=dict(sample_queries),
    )

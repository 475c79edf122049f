"""Assessments: the assessor's verdict on one candidate.

"Each candidate is assigned a positive or negative desirability indicating
its impact … for a forecast scenario. The system assigns different
desirabilities to the same candidate for different forecast scenarios …
Besides, the assessor assigns an associated confidence … and a cost to each
assessment. The cost component is twofold: permanent costs (e.g., the
memory consumption of an index) and one-time costs for applying the
configuration" (Section II-D.b).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.tuning.candidate import Candidate


@dataclass
class Assessment:
    """Desirability per scenario, confidence, and costs for one candidate."""

    candidate: Candidate
    #: scenario name → benefit in ms of workload cost over the forecast
    #: horizon (positive = improvement, negative = regression)
    desirability: dict[str, float]
    #: certainty of the assessment, in [0, 1]
    confidence: float = 1.0
    #: resource → amount permanently consumed while the candidate is active
    #: (e.g. index memory bytes); negative amounts free the resource
    permanent_costs: dict[str, float] = field(default_factory=dict)
    #: one-time reconfiguration cost of applying the candidate now
    one_time_cost_ms: float = 0.0

    def expected(self, probabilities: Mapping[str, float]) -> float:
        """Probability-weighted desirability."""
        return sum(
            probabilities.get(name, 0.0) * value
            for name, value in self.desirability.items()
        )

    def worst_case(self) -> float:
        """Minimum desirability over all scenarios."""
        return min(self.desirability.values()) if self.desirability else 0.0

    def std(self, probabilities: Mapping[str, float]) -> float:
        """Probability-weighted standard deviation of desirability."""
        mean = self.expected(probabilities)
        variance = sum(
            probabilities.get(name, 0.0) * (value - mean) ** 2
            for name, value in self.desirability.items()
        )
        return math.sqrt(max(variance, 0.0))

    def permanent_cost(self, resource: str) -> float:
        return self.permanent_costs.get(resource, 0.0)


def scenario_benefits(
    scenarios: Sequence,
    baseline_costs: Mapping[str, float],
    new_costs: Mapping[str, float],
) -> dict[str, float]:
    """Per-scenario desirability from before/after template costs.

    For each scenario the benefit is the frequency-weighted cost saving
    over the templates the assessor priced (positive-frequency templates
    missing from ``baseline_costs`` were out of the assessor's scope and
    contribute nothing). Shared by the cost-model and sort-benefit
    assessors so both fold benefits identically.
    """
    benefits: dict[str, float] = {}
    for scenario in scenarios:
        benefit = 0.0
        for key, frequency in scenario.frequencies.items():
            if frequency <= 0 or key not in baseline_costs:
                continue
            benefit += frequency * (baseline_costs[key] - new_costs[key])
        benefits[scenario.name] = benefit
    return benefits

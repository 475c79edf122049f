"""Forecast-miss detection: has the live workload left the forecast
envelope?

Runtime KPIs "can disclose when the configuration should be adjusted"
(Section II-A.e) — but a configuration tuned for a forecast can also be
invalidated by the *workload itself* drifting away from every scenario
the forecast contained (the ``swap_dominance`` failure mode of
``repro.workload.drift``). The detector compares the observed template
mix against each forecast scenario using total-variation distance over
normalised family frequencies; when the *nearest* scenario is still too
far away for :data:`MISS_PATIENCE` consecutive observations, it
escalates — the organizer re-tunes immediately instead of waiting for
the next periodic trigger.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.forecasting.scenarios import Forecast

#: total-variation distance beyond which the observed mix is a miss.
#: Calibration: a dominance swap of the retail suite's heaviest and
#: lightest families moves ~0.25 TV, while Poisson noise on a stable
#: mix (averaged over the observed window) stays under ~0.1
TV_THRESHOLD = 0.20
#: consecutive missing observations before escalation
MISS_PATIENCE = 2


def total_variation(
    p: Mapping[str, float], q: Mapping[str, float]
) -> float:
    """Total-variation distance between two frequency vectors.

    Both vectors are normalised to probability distributions over the
    union of their template keys first, so absolute volume differences
    (more queries, same mix) do not register as drift. Returns a value
    in [0, 1]; an empty-vs-nonempty comparison is maximal drift (1.0)
    and two empty vectors are identical (0.0).
    """
    p_total = sum(max(0.0, v) for v in p.values())
    q_total = sum(max(0.0, v) for v in q.values())
    if p_total <= 0 and q_total <= 0:
        return 0.0
    if p_total <= 0 or q_total <= 0:
        return 1.0
    # sorted: set order follows the per-process string hash salt, and
    # float addition is not associative — fleet workers must agree to
    # the last digit
    return 0.5 * sum(
        abs(
            max(0.0, p.get(key, 0.0)) / p_total
            - max(0.0, q.get(key, 0.0)) / q_total
        )
        for key in sorted(set(p) | set(q))
    )


@dataclass(frozen=True)
class ForecastMissVerdict:
    """One observed-mix-vs-forecast comparison."""

    #: TV distance to the nearest forecast scenario
    distance: float
    #: name of the nearest scenario
    nearest_scenario: str
    #: whether this observation was outside the envelope
    miss: bool
    #: consecutive misses including this observation
    streak: int
    #: whether the streak reached patience on this observation
    escalate: bool


class ForecastMissDetector:
    """Tracks consecutive observations outside the forecast envelope."""

    def __init__(self) -> None:
        self._streak = 0

    @property
    def streak(self) -> int:
        return self._streak

    def reset(self) -> None:
        """Forget the current miss streak (a fresh forecast was adopted)."""
        self._streak = 0

    def observe(
        self, forecast: Forecast, observed: Mapping[str, float]
    ) -> ForecastMissVerdict:
        """Record one observed template mix against ``forecast``.

        The observed mix is inside the envelope as long as *any* scenario
        is within the threshold — the forecast explicitly models several
        futures, and matching the worst case is not a miss. Escalation
        resets the streak so re-tuning gets a full patience window before
        the detector can fire again.
        """
        distances = {
            scenario.name: total_variation(scenario.frequencies, observed)
            for scenario in forecast.scenarios
        }
        nearest = min(distances, key=distances.get)
        distance = distances[nearest]
        miss = distance > TV_THRESHOLD
        self._streak = self._streak + 1 if miss else 0
        escalate = self._streak >= MISS_PATIENCE
        if escalate:
            self._streak = 0
        return ForecastMissVerdict(
            distance=distance,
            nearest_scenario=nearest,
            miss=miss,
            streak=self._streak if not escalate else MISS_PATIENCE,
            escalate=escalate,
        )

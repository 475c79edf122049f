"""Runtime regression detection for committed tuning passes.

The paper's runtime KPIs exist "for determining the impact of adjusted
configurations" (Section II-A.e). The detector operationalises that:
given the pre-commit KPI baseline and the windowed post-commit samples,
it decides whether the committed configuration made the workload
*measurably worse* — noise-aware, so a single slow bin never condemns a
good commit:

- idle samples (no queries executed in the interval) carry no evidence
  and are excluded from both windows;
- a verdict needs at least :data:`MIN_SAMPLES` busy post-commit samples;
- the regression must exceed a *relative* bound over the baseline
  (``observed > baseline * (1 + REGRESSION_BOUND)``), which scales with
  the workload instead of chasing absolute milliseconds.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.kpi.metrics import MEAN_QUERY_MS, QUERIES_EXECUTED, KPISample

#: KPI the regression watchdog compares (lower is better)
REGRESSION_METRIC = MEAN_QUERY_MS
#: relative KPI regression over baseline that confirms a bad commit
REGRESSION_BOUND = 0.30
#: busy post-commit samples required before any regression verdict
MIN_SAMPLES = 3


class RegressionStatus(enum.Enum):
    """Outcome of one regression check against a probation commit."""

    #: not enough busy samples (or no usable baseline) for a verdict yet
    PENDING = "pending"
    #: enough evidence, and the KPI stayed within the bound
    CLEAR = "clear"
    #: enough evidence, and the KPI regressed beyond the bound
    CONFIRMED = "confirmed"


@dataclass(frozen=True)
class RegressionVerdict:
    """One windowed KPI comparison against the pre-commit baseline."""

    status: RegressionStatus
    metric: str
    baseline_ms: float
    observed_ms: float
    #: busy (non-idle) post-commit samples the observation is based on
    sample_count: int

    @property
    def regression(self) -> float:
        """Relative KPI regression over the baseline (0 when no baseline)."""
        if self.baseline_ms <= 0:
            return 0.0
        return self.observed_ms / self.baseline_ms - 1.0

    @property
    def confirmed(self) -> bool:
        return self.status is RegressionStatus.CONFIRMED


class RegressionDetector:
    """Noise-aware windowed KPI comparison against a pre-commit baseline."""

    @staticmethod
    def busy(samples: Sequence[KPISample]) -> list[KPISample]:
        """Samples whose interval actually executed queries."""
        return [s for s in samples if s.get(QUERIES_EXECUTED) > 0]

    def baseline(self, samples: Sequence[KPISample], last_n: int) -> tuple[float, int]:
        """Mean of the metric over the last ``last_n`` busy samples.

        Returns ``(baseline, sample_count)``; ``(0.0, 0)`` when no busy
        sample exists — an unusable baseline that keeps every later
        verdict :attr:`RegressionStatus.PENDING` (no evidence, no
        rollback).
        """
        busy = self.busy(samples)[-last_n:]
        if not busy:
            return 0.0, 0
        return sum(s.get(REGRESSION_METRIC) for s in busy) / len(busy), len(busy)

    def evaluate(
        self, baseline_ms: float, samples: Sequence[KPISample]
    ) -> RegressionVerdict:
        """Compare post-commit ``samples`` against ``baseline_ms``."""
        busy = self.busy(samples)
        if baseline_ms <= 0 or len(busy) < MIN_SAMPLES:
            return RegressionVerdict(
                status=RegressionStatus.PENDING,
                metric=REGRESSION_METRIC,
                baseline_ms=baseline_ms,
                observed_ms=0.0,
                sample_count=len(busy),
            )
        observed = sum(s.get(REGRESSION_METRIC) for s in busy) / len(busy)
        confirmed = observed > baseline_ms * (1.0 + REGRESSION_BOUND)
        return RegressionVerdict(
            status=(
                RegressionStatus.CONFIRMED
                if confirmed
                else RegressionStatus.CLEAR
            ),
            metric=REGRESSION_METRIC,
            baseline_ms=baseline_ms,
            observed_ms=observed,
            sample_count=len(busy),
        )

"""Guarded reconfiguration: commit probation, regression watchdog, and
forecast-miss escalation (see docs/robustness.md)."""

from repro.configuration.store import CommitResolution
from repro.guard.forecast_miss import (
    ForecastMissDetector,
    ForecastMissVerdict,
    total_variation,
)
from repro.guard.guard import CommitGuard
from repro.guard.regression import (
    RegressionDetector,
    RegressionStatus,
    RegressionVerdict,
)

__all__ = [
    "CommitGuard",
    "CommitResolution",
    "ForecastMissDetector",
    "ForecastMissVerdict",
    "RegressionDetector",
    "RegressionStatus",
    "RegressionVerdict",
    "total_variation",
]

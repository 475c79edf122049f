"""Tuning triggers: when should the organizer start a tuning run?

"The organizer … identifies convenient points in time for tuning by
constantly monitoring runtime KPIs and taking workload forecasts into
account. The organizer also decides whether changes observed in workload
forecasts are significant enough to justify possibly expensive tunings.
This decision relies … on the difference of the current workload cost and
the estimated workload cost for the forecasted workload given the current
configuration" (Section II-E).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.configuration.constraints import ConstraintSet
from repro.cost.what_if import WhatIfOptimizer
from repro.forecasting.predictor import WorkloadPredictor
from repro.kpi.monitor import RuntimeKPIMonitor


@dataclass
class TriggerContext:
    """Everything a trigger may consult."""

    predictor: WorkloadPredictor
    monitor: RuntimeKPIMonitor
    optimizer: WhatIfOptimizer
    constraints: ConstraintSet
    now_ms: float
    horizon_bins: int
    last_tuning_ms: float | None = None


@dataclass(frozen=True)
class TriggerDecision:
    """Whether to tune, and why."""

    should_tune: bool
    trigger: str
    reason: str
    details: dict[str, float] = field(default_factory=dict)


#: trigger name of guard-initiated escalation passes. Not a
#: :class:`TuningTrigger` — the commit guard escalates out of band from
#: its per-tick hook (see repro.guard) instead of waiting for the
#: organizer's trigger evaluation, which is the point: the live workload
#: left the forecast envelope *now*.
FORECAST_MISS_TRIGGER = "forecast_miss"

#: bins of observed history the drift trigger needs before it compares
MIN_HISTORY_BINS = 4
#: trailing bins that make up the "recent workload" of the comparison
RECENT_WINDOW_BINS = 4


class TuningTrigger(ABC):
    """One policy that can demand a tuning run."""

    name: str = "trigger"

    @abstractmethod
    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        """Decide based on the current context."""

    def _no(self, reason: str, **details: float) -> TriggerDecision:
        return TriggerDecision(False, self.name, reason, details)

    def _yes(self, reason: str, **details: float) -> TriggerDecision:
        return TriggerDecision(True, self.name, reason, details)


class ForecastDriftTrigger(TuningTrigger):
    """Fires when the forecasted workload would cost significantly more (or
    less) than the recent workload under the current configuration."""

    name = "forecast_drift"

    def __init__(self, relative_threshold: float = 0.15) -> None:
        if relative_threshold <= 0:
            raise ValueError("relative_threshold must be positive")
        self._threshold = relative_threshold

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        predictor = context.predictor
        if not predictor.has_enough_history(MIN_HISTORY_BINS):
            return self._no("insufficient workload history")
        forecast = predictor.forecast(context.horizon_bins)
        sample_queries = dict(forecast.sample_queries)
        forecast_cost = context.optimizer.scenario_cost_ms(
            forecast.expected, sample_queries
        )
        recent = predictor.recent_scenario(
            RECENT_WINDOW_BINS, context.horizon_bins
        )
        recent_cost = context.optimizer.scenario_cost_ms(
            recent, sample_queries
        )
        if recent_cost <= 0:
            return self._no("no recent workload cost to compare")
        drift = abs(forecast_cost - recent_cost) / recent_cost
        if drift >= self._threshold:
            return self._yes(
                f"forecast cost deviates {drift:.1%} from recent workload",
                drift=drift,
                forecast_cost_ms=forecast_cost,
                recent_cost_ms=recent_cost,
            )
        return self._no(
            f"forecast within {self._threshold:.0%} of recent workload",
            drift=drift,
        )


class SlaViolationTrigger(TuningTrigger):
    """Fires when any SLA of the constraint set is persistently violated."""

    name = "sla_violation"

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        slas = context.constraints.slas
        if not slas:
            return self._no("no SLAs configured")
        context.monitor.update_sla_streaks(slas)
        breached = context.monitor.breached_slas(slas)
        if breached:
            worst = breached[0]
            return self._yes(
                f"SLA on {worst.metric} breached "
                f"(> {worst.threshold} for {worst.patience} samples)",
                threshold=worst.threshold,
            )
        return self._no("all SLAs satisfied")


class PeriodicTrigger(TuningTrigger):
    """Fires on a fixed simulated-time cadence (maintenance-window style)."""

    name = "periodic"

    def __init__(self, every_ms: float) -> None:
        if every_ms <= 0:
            raise ValueError("every_ms must be positive")
        self._every_ms = every_ms

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        last = context.last_tuning_ms
        if last is None:
            return self._yes("no tuning has run yet")
        elapsed = context.now_ms - last
        if elapsed >= self._every_ms:
            return self._yes(
                f"{elapsed:.0f} ms since last tuning", elapsed_ms=elapsed
            )
        return self._no("within the periodic interval", elapsed_ms=elapsed)


class NeverTrigger(TuningTrigger):
    """Disables autonomous tuning (manual mode)."""

    name = "never"

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        del context
        return self._no("autonomous tuning disabled")

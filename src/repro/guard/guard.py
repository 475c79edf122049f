"""The commit guard: probation, watchdog, and escalation in one place.

PR 3 made action *application* fault-tolerant; the guard makes tuning
*decisions* fault-tolerant. Every committed pass enters a probation
window during which its inverse actions are retained on its record in
the :class:`~repro.configuration.store.ConfigurationInstanceStorage`; a
:class:`~repro.guard.regression.RegressionDetector` watches the
post-commit runtime KPIs against the pre-commit baseline, and a
:class:`~repro.guard.forecast_miss.ForecastMissDetector` watches the
observed template mix against the forecast the pass was tuned for. The
organizer drives the guard from its per-tick hook and performs the
actual rollback / re-tune; the guard owns the state machine, events,
and ``guard_*`` counters.
"""

from __future__ import annotations

from repro.configuration.actions import Action
from repro.configuration.store import (
    CommitResolution,
    ConfigurationInstanceStorage,
    ConfigurationRecord,
)
from repro.core.events import EventKind, EventLog
from repro.forecasting.predictor import WorkloadPredictor
from repro.forecasting.scenarios import Forecast
from repro.guard import forecast_miss
from repro.guard.forecast_miss import (
    ForecastMissDetector,
    ForecastMissVerdict,
)
from repro.guard.regression import RegressionDetector, RegressionVerdict
from repro.kpi.metrics import (
    GUARD_COMMITS,
    GUARD_ESCALATIONS,
    GUARD_FORECAST_MISSES,
    GUARD_PASSED,
    GUARD_REGRESSIONS,
    GUARD_ROLLBACKS,
    GUARD_SUPERSEDED,
)
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.telemetry.metrics import MetricRegistry


#: pre-commit busy samples averaged into the baseline
BASELINE_SAMPLES = 4
#: post-commit samples after which an unconfirmed commit passes
PROBATION_SAMPLES = 8
#: consecutive rolled-back commits of one feature before the guard flags
#: it as a repeat offender (the organizer then force-opens the
#: feature-quarantine breaker for it)
REPEAT_OFFENDER_AFTER = 2
#: simulated ms between forecast-miss escalations
ESCALATION_COOLDOWN_MS = 3 * 60_000.0
#: recent bins averaged into the observed template mix
OBSERVED_WINDOW_BINS = 3


class CommitGuard:
    """Tracks the commit on probation and the forecast envelope.

    The guard never mutates the database itself — it reports CONFIRMED
    regressions and escalations to the organizer, which rolls back
    through the executor's recovery path and re-tunes. That keeps all
    reconfiguration accounting on the one code path PR 3 already tests.
    """

    def __init__(
        self,
        monitor: RuntimeKPIMonitor,
        store: ConfigurationInstanceStorage,
        registry: MetricRegistry | None = None,
        events: EventLog | None = None,
    ) -> None:
        self._monitor = monitor
        self._store = store
        self._events = events if events is not None else EventLog()
        registry = registry if registry is not None else MetricRegistry()
        self._detector = RegressionDetector()
        self._miss_detector = ForecastMissDetector()
        self._forecast: Forecast | None = None
        self._last_escalation_ms: float | None = None
        #: feature → consecutive commits of it the watchdog rolled back
        self._regression_streaks: dict[str, int] = {}
        self._commits = registry.counter(GUARD_COMMITS)
        self._passed = registry.counter(GUARD_PASSED)
        self._superseded = registry.counter(GUARD_SUPERSEDED)
        self._regressions = registry.counter(GUARD_REGRESSIONS)
        self._rollbacks = registry.counter(GUARD_ROLLBACKS)
        self._misses = registry.counter(GUARD_FORECAST_MISSES)
        self._escalations = registry.counter(GUARD_ESCALATIONS)

    @property
    def active_commit(self) -> ConfigurationRecord | None:
        return self._store.active

    @property
    def miss_streak(self) -> int:
        return self._miss_detector.streak

    def regression_streak(self, feature: str) -> int:
        """Consecutive rolled-back commits ``feature`` contributed to."""
        return self._regression_streaks.get(feature, 0)

    # ------------------------------------------------------------------
    # probation lifecycle

    def note_forecast(self, forecast: Forecast) -> None:
        """Adopt ``forecast`` as the envelope the live workload is judged
        against; resets the miss streak (the new configuration was tuned
        for this forecast, so drift evidence starts over)."""
        self._forecast = forecast
        self._miss_detector.reset()

    def open_probation(
        self, record: ConfigurationRecord, inverse_actions: tuple[Action, ...]
    ) -> ConfigurationRecord | None:
        """Put the pass just recorded on probation.

        Returns ``None`` (no probation) when the pass applied nothing
        reversible. The KPI baseline is taken *now*, from the monitor
        history — which at commit time still contains only pre-pass
        samples.
        """
        if not inverse_actions:
            return None
        now_ms = record.applied_at_ms
        baseline_ms, baseline_count = self._detector.baseline(
            self._monitor.history(), BASELINE_SAMPLES
        )
        superseded = self._store.open_probation(
            record,
            inverse_actions=inverse_actions,
            baseline_ms=baseline_ms,
            baseline_sample_count=baseline_count,
        )
        self._commits.inc()
        if superseded is not None:
            self._superseded.inc()
            self._events.log(
                now_ms,
                EventKind.GUARD,
                f"commit #{superseded.commit_id} superseded by "
                f"commit #{record.commit_id} before its probation ended",
                commit_id=superseded.commit_id,
                state="superseded",
                superseded_by=record.commit_id,
            )
        self._events.log(
            now_ms,
            EventKind.GUARD,
            f"commit #{record.commit_id} on probation: "
            f"{len(inverse_actions)} inverse actions retained, "
            f"baseline {baseline_ms:.2f} ms over {baseline_count} samples",
            commit_id=record.commit_id,
            state="on_probation",
            features=list(record.features),
            inverse_actions=len(inverse_actions),
            baseline_ms=baseline_ms,
            baseline_samples=baseline_count,
        )
        return record

    # ------------------------------------------------------------------
    # watchdogs

    def _post_commit_samples(self, commit: ConfigurationRecord) -> list:
        return [
            s
            for s in self._monitor.history()
            if s.at_ms > commit.applied_at_ms
        ]

    def check_regression(
        self, now_ms: float
    ) -> tuple[ConfigurationRecord, RegressionVerdict] | None:
        """Evaluate the active probation commit against post-commit KPIs.

        Returns ``(commit, verdict)`` only on a CONFIRMED regression —
        the caller then rolls back and calls :meth:`resolve_rollback`
        with the verdict.
        An unconfirmed commit whose probation window has elapsed
        (:data:`PROBATION_SAMPLES` post-commit samples) graduates here:
        resolved PASSED, rollback material dropped.
        """
        commit = self._store.active
        if commit is None:
            return None
        post = self._post_commit_samples(commit)
        verdict = self._detector.evaluate(commit.baseline_ms, post)
        if verdict.confirmed:
            self._regressions.inc()
            self._events.log(
                now_ms,
                EventKind.GUARD,
                f"commit #{commit.commit_id} regression confirmed: "
                f"{verdict.metric} {commit.baseline_ms:.2f} -> "
                f"{verdict.observed_ms:.2f} ms "
                f"(+{verdict.regression:.0%} over {verdict.sample_count} "
                "samples)",
                commit_id=commit.commit_id,
                state="regression_confirmed",
                metric=verdict.metric,
                baseline_ms=commit.baseline_ms,
                observed_ms=verdict.observed_ms,
                regression=verdict.regression,
                samples=verdict.sample_count,
            )
            return commit, verdict
        if len(post) >= PROBATION_SAMPLES:
            self._store.resolve(
                CommitResolution.PASSED, now_ms, verdict.observed_ms
            )
            self._passed.inc()
            for feature in commit.features:
                self._regression_streaks.pop(feature, None)
            self._events.log(
                now_ms,
                EventKind.GUARD,
                f"commit #{commit.commit_id} passed probation "
                f"({verdict.metric} {verdict.observed_ms:.2f} ms vs "
                f"baseline {commit.baseline_ms:.2f} ms)",
                commit_id=commit.commit_id,
                state="passed",
                observed_ms=verdict.observed_ms,
                baseline_ms=commit.baseline_ms,
            )
        return None

    def resolve_rollback(
        self, now_ms: float, verdict: RegressionVerdict
    ) -> tuple[ConfigurationRecord, tuple[str, ...]]:
        """Mark the active commit rolled back (after the caller restored
        the pre-commit configuration through the executor); ``verdict``
        is the confirmed regression that condemned it.

        Returns ``(commit, repeat_offenders)``: features whose last
        :data:`REPEAT_OFFENDER_AFTER` commits were all rolled back. The
        organizer force-opens the quarantine breaker for those — a
        feature the cost model keeps getting wrong must stop tuning, not
        keep oscillating. A flagged feature's streak resets so it gets a
        clean slate after its quarantine probation.
        """
        commit = self._store.resolve(
            CommitResolution.ROLLED_BACK, now_ms, verdict.observed_ms
        )
        self._rollbacks.inc()
        offenders: list[str] = []
        for feature in commit.features:
            streak = self._regression_streaks.get(feature, 0) + 1
            if streak >= REPEAT_OFFENDER_AFTER:
                offenders.append(feature)
                self._regression_streaks.pop(feature, None)
            else:
                self._regression_streaks[feature] = streak
        return commit, tuple(offenders)

    def check_forecast_miss(
        self, now_ms: float, predictor: WorkloadPredictor
    ) -> ForecastMissVerdict | None:
        """Compare the observed template mix against the noted forecast.

        Returns the verdict only when it escalates
        (:data:`~repro.guard.forecast_miss.MISS_PATIENCE` consecutive
        observations outside the envelope, and no escalation within the
        cooldown). No forecast noted, an all-idle observation window, or
        a forecast with no mass all yield ``None`` — absence of evidence
        never escalates.
        """
        if self._forecast is None:
            return None
        if (
            self._last_escalation_ms is not None
            and now_ms - self._last_escalation_ms < ESCALATION_COOLDOWN_MS
        ):
            return None
        observed = predictor.recent_scenario(
            OBSERVED_WINDOW_BINS,
            self._forecast.horizon_bins,
            name="observed",
        ).frequencies
        if sum(observed.values()) <= 0:
            return None
        verdict = self._miss_detector.observe(self._forecast, observed)
        if not verdict.miss:
            return None
        self._misses.inc()
        if not verdict.escalate:
            return None
        self._escalations.inc()
        self._last_escalation_ms = now_ms
        self._events.log(
            now_ms,
            EventKind.GUARD,
            f"forecast miss escalated: observed mix is {verdict.distance:.2f}"
            f" TV from nearest scenario {verdict.nearest_scenario!r} "
            f"for {forecast_miss.MISS_PATIENCE} consecutive observations",
            state="forecast_miss",
            distance=verdict.distance,
            nearest_scenario=verdict.nearest_scenario,
            threshold=forecast_miss.TV_THRESHOLD,
        )
        return verdict

"""The Organizer (Section II-E).

Orchestrates the self-management loop: evaluates triggers against KPIs and
forecasts, gates expensive tunings to idle windows, decides the tuning
order for multiple features (Section III, cached and refreshed
periodically), optionally restricts tuning to the features with the best
impact per cost, runs the recursive tuning, and stores the resulting
configuration instance with its predicted and measured benefit — closing
the feedback loop.

A pass is written once, in ``run_tuning``: a periodic tick, a forecast-miss
escalation and a manual request all run that one body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.configuration.store import (
    ConfigurationInstanceStorage,
    ConfigurationRecord,
    FeatureOutcome,
)
from repro.core.events import EventKind, EventLog
from repro.core.triggers import (
    FORECAST_MISS_TRIGGER,
    ForecastDriftTrigger,
    SlaViolationTrigger,
    TriggerContext,
    TriggerDecision,
    TuningTrigger,
)
from repro.errors import TuningAbortedError
from repro.faults import quarantine
from repro.faults.quarantine import Admission, FeatureQuarantine
from repro.forecasting.predictor import WorkloadPredictor
from repro.guard.forecast_miss import ForecastMissVerdict
from repro.guard.guard import CommitGuard
from repro.guard.regression import RegressionVerdict
from repro.kpi.metrics import (
    WHATIF_CACHE_EVICTIONS,
    WHATIF_CACHE_HITS,
    WHATIF_CACHE_MISSES,
)
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.ordering.heuristics import top_features_by_impact_per_cost
from repro.ordering.recursive import (
    RecursiveTuningPlanner,
    RecursiveTuningReport,
)
from repro.telemetry import Telemetry
from repro.tuning.executors.sequential import ApplicationReport, SequentialExecutor
from repro.tuning.tuner import Tuner

if TYPE_CHECKING:
    from repro.configuration.actions import Action
    from repro.forecasting.scenarios import Forecast

#: Fleet-arbiter admission hook: called with the firing trigger decision
#: before a pass runs; returns ``(admitted, reason)``. A denial logs a
#: structured SKIP event and defers the pass (see repro.fleet.arbiter).
AdmissionHook = Callable[["Organizer", TriggerDecision], "tuple[bool, str]"]

#: Called with every committed pass report — the fleet arbiter harvests
#: tuning priors from it; escalation passes flow through it too.
CommitListener = Callable[["Organizer", "OrganizerRunReport"], None]

#: Trigger name recorded for passes replayed from a fleet tuning prior.
FLEET_REPLAY_TRIGGER = "fleet_replay"

#: re-measure dependencies and re-solve the ordering LP every N runs
ORDER_REFRESH_EVERY = 5


@dataclass(frozen=True)
class OrganizerConfig:
    """Policy parameters of the organizer."""

    #: forecast horizon, in observation bins
    horizon_bins: int = 6
    #: bins of history required before any tuning
    min_history_bins: int = 4
    #: simulated ms that must pass between autonomous tuning runs
    cooldown_ms: float = 0.0
    #: defer non-urgent tunings until a low-utilization window
    require_idle: bool = False
    #: when set, tune only the features whose single-tuning one-time costs
    #: fit this budget, ranked by impact per cost (Section III-A)
    tuning_time_budget_ms: float | None = None


@dataclass
class OrganizerRunReport:
    """What one organizer-initiated tuning pass did."""

    decision: TriggerDecision
    order: tuple[str, ...]
    tuning: RecursiveTuningReport
    #: the configuration-store record of the commit
    record: ConfigurationRecord
    skipped_features: tuple[str, ...] = field(default_factory=tuple)
    #: features excluded from this pass by the quarantine breaker
    quarantined_features: tuple[str, ...] = field(default_factory=tuple)


class Organizer:
    """Orchestrates triggers, ordering, recursive tuning, and feedback."""

    def __init__(
        self,
        predictor: WorkloadPredictor,
        tuners: list[Tuner],
        telemetry: Telemetry,
        monitor: RuntimeKPIMonitor,
        store: ConfigurationInstanceStorage,
        events: EventLog,
        executor: SequentialExecutor,
        constraints: ConstraintSet | None = None,
        triggers: list[TuningTrigger] | None = None,
        config: OrganizerConfig | None = None,
    ) -> None:
        # the tenant stack's own collaborators (TenantContext.wire): every
        # change — a pass, a replayed prior, a guard rollback — goes
        # through the one executor
        self._predictor = predictor
        self._tuners = tuners
        self._constraints = constraints or ConstraintSet()
        self._telemetry = telemetry
        self._tracer = telemetry.tracer
        self._monitor = monitor
        self._store = store
        self._events = events
        self._executor = executor
        # None (not an empty list) asks for the defaults
        self._triggers = (
            triggers
            if triggers is not None
            else [SlaViolationTrigger(), ForecastDriftTrigger()]
        )
        self._config = config or OrganizerConfig()
        # per-feature circuit breaker: graceful degradation when a
        # feature's applications keep failing (see repro.faults)
        self._quarantine = FeatureQuarantine(registry=telemetry.registry)
        self._planner = RecursiveTuningPlanner(
            tuners, self._constraints, telemetry=telemetry
        )
        # the planner refused tuners that do not share one optimizer:
        # triggers and the pass's before/after costs price through it too
        self._optimizer = tuners[0].optimizer
        self._db = self._optimizer.database
        # the commit guard: probation (held on the store's records),
        # regression watchdog, and forecast-miss escalation, driven from
        # guard_tick()
        self._guard = CommitGuard(
            self._monitor,
            self._store,
            registry=self._telemetry.registry,
            events=self._events,
        )
        self._last_tuning_ms: float | None = None
        self._cached_order: tuple[str, ...] | None = None
        self._runs_since_refresh = 0
        self._last_matrix = None
        # fleet hooks: both stay None outside a fleet, costing nothing
        self._admission: AdmissionHook | None = None
        self._commit_listener: CommitListener | None = None

    # ------------------------------------------------------------------

    @property
    def config(self) -> OrganizerConfig:
        return self._config

    @property
    def events(self) -> EventLog:
        return self._events

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry

    @property
    def store(self) -> ConfigurationInstanceStorage:
        return self._store

    @property
    def monitor(self) -> RuntimeKPIMonitor:
        return self._monitor

    @property
    def last_tuning_ms(self) -> float | None:
        return self._last_tuning_ms

    @property
    def quarantine(self) -> FeatureQuarantine:
        return self._quarantine

    @property
    def guard(self) -> CommitGuard:
        return self._guard

    @property
    def cached_order(self) -> tuple[str, ...] | None:
        return self._cached_order

    def __getstate__(self) -> dict[str, object]:
        # the fleet hooks belong to whoever hosts this organizer, not to
        # its state: a pickle leaves them behind
        return {
            **self.__dict__,
            "_admission": None,
            "_commit_listener": None,
        }

    def set_admission(self, hook: AdmissionHook | None) -> None:
        """Install (or clear) the fleet arbiter's admission hook.

        The hook runs in :meth:`tick` after a trigger fires and the idle
        gate passes, i.e. exactly where this organizer would otherwise
        commit to a pass. Manual :meth:`run_tuning` calls and guard
        escalations bypass it — urgent work is not arbitrated.
        """
        self._admission = hook

    def set_commit_listener(self, listener: CommitListener | None) -> None:
        """Install (or clear) the per-committed-pass callback.

        The fleet arbiter uses it to harvest tuning priors; replayed
        passes (:meth:`replay_pass`) do not re-fire it, so a prior can
        never be harvested from its own replay.
        """
        self._commit_listener = listener

    def _context(self) -> TriggerContext:
        return TriggerContext(
            predictor=self._predictor,
            monitor=self._monitor,
            optimizer=self._optimizer,
            constraints=self._constraints,
            now_ms=self._db.clock.now_ms,
            horizon_bins=self._config.horizon_bins,
            last_tuning_ms=self._last_tuning_ms,
        )

    def evaluate_triggers(self) -> TriggerDecision:
        """First firing trigger wins; otherwise the last negative decision."""
        context = self._context()
        decision = TriggerDecision(False, "none", "no triggers configured")
        for trigger in self._triggers:
            decision = trigger.evaluate(context)
            if decision.should_tune:
                return decision
        return decision

    # ------------------------------------------------------------------

    def tick(self) -> OrganizerRunReport | None:
        """One organizer step: decide, gate, and possibly tune.

        Quiet periods are explainable from the event log: skipping for
        missing history or an active cooldown logs a structured SKIP
        event with the gap that caused it.
        """
        now = self._db.clock.now_ms
        config = self._config
        if not self._predictor.has_enough_history(config.min_history_bins):
            have = self._predictor.history_bins
            self._events.log(
                now,
                EventKind.SKIP,
                f"tuning skipped: {have}/{config.min_history_bins} "
                "history bins observed",
                history_bins=have,
                required_bins=config.min_history_bins,
                missing_bins=max(0, config.min_history_bins - have),
            )
            return None
        if (
            self._last_tuning_ms is not None
            and now - self._last_tuning_ms < config.cooldown_ms
        ):
            remaining = config.cooldown_ms - (now - self._last_tuning_ms)
            self._events.log(
                now,
                EventKind.SKIP,
                f"tuning skipped: cooldown for another {remaining:.0f} ms",
                cooldown_ms=config.cooldown_ms,
                remaining_cooldown_ms=remaining,
                last_tuning_ms=self._last_tuning_ms,
            )
            return None
        decision = self.evaluate_triggers()
        self._events.log(
            now,
            EventKind.TRIGGER,
            f"{decision.trigger}: {decision.reason}",
            should_tune=decision.should_tune,
            **decision.details,
        )
        if not decision.should_tune:
            return None
        urgent = decision.trigger == SlaViolationTrigger.name
        if config.require_idle and not urgent:
            if not self._monitor.is_idle():
                self._events.log(
                    now,
                    EventKind.SKIP,
                    "tuning deferred: waiting for a low-utilization window",
                    trigger=decision.trigger,
                    **decision.details,
                )
                return None
        if self._admission is not None:
            admitted, reason = self._admission(self, decision)
            if not admitted:
                self._events.log(
                    now,
                    EventKind.SKIP,
                    f"tuning deferred by fleet arbiter: {reason}",
                    trigger=decision.trigger,
                    reason=reason,
                    **decision.details,
                )
                return None
        return self.run_tuning(decision)

    # ------------------------------------------------------------------
    # the guarded-commit hook (driven every driver tick)

    def guard_tick(self) -> OrganizerRunReport | None:
        """Per-tick guard hook: regression watchdog, then escalation.

        Runs more often than :meth:`tick` (every monitor sample, not
        every trigger evaluation): a regressing commit is rolled back as
        soon as the evidence is in, and a forecast miss re-tunes
        immediately instead of waiting for the next periodic trigger.
        Returns the escalation pass report when one ran.
        """
        now = self._db.clock.now_ms
        confirmed = self._guard.check_regression(now)
        if confirmed is not None:
            commit, verdict = confirmed
            self._rollback_commit(commit, verdict)
        miss = self._guard.check_forecast_miss(now, self._predictor)
        if miss is not None:
            return self._escalate(miss)
        return None

    def _rollback_commit(
        self, commit: ConfigurationRecord, verdict: RegressionVerdict
    ) -> ApplicationReport:
        """Undo a probation commit through the executor recovery path."""
        report = self._executor.rollback(
            self._db,
            list(commit.inverse_actions),
        )
        now = self._db.clock.now_ms
        _, offenders = self._guard.resolve_rollback(now, verdict)
        self._events.log(
            now,
            EventKind.ROLLBACK,
            f"rolled back commit #{commit.commit_id}: "
            f"{report.rollback_actions} inverse actions undone "
            f"({verdict.metric} regressed {verdict.regression:.0%})",
            commit_id=commit.commit_id,
            actions=report.rollback_actions,
            work_ms=report.rollback_work_ms,
            regression=verdict.regression,
        )
        # a rolled-back commit counts against its features in the same
        # breaker failed applications feed; a repeat offender — commits
        # that keep regressing despite applying cleanly — is force-opened
        for feature in commit.features:
            opened = self._quarantine.record_failure(feature, now)
            if feature in offenders and not opened:
                opened = self._quarantine.open(feature, now)
            if opened:
                self._events.log(
                    now,
                    EventKind.QUARANTINE,
                    f"feature {feature!r} quarantined after its commits "
                    "kept regressing runtime KPIs",
                    feature=feature,
                    state="opened",
                    probation_ms=quarantine.PROBATION_MS,
                )
        return report

    def _escalate(self, verdict: ForecastMissVerdict) -> OrganizerRunReport | None:
        """Re-tune now: the workload left the forecast envelope.

        The cached tuning order was computed for the old mix, so it is
        invalidated first — the escalation pass re-measures dependencies
        and re-solves the ordering LP against the fresh forecast.
        """
        self._cached_order = None
        decision = TriggerDecision(
            True,
            FORECAST_MISS_TRIGGER,
            f"observed mix {verdict.distance:.2f} TV from nearest "
            f"scenario {verdict.nearest_scenario!r}",
            {"distance": verdict.distance},
        )
        return self.run_tuning(decision)

    def _feature_subset(self, order: tuple[str, ...]) -> tuple[str, ...]:
        budget = self._config.tuning_time_budget_ms
        if budget is None or self._last_matrix is None:
            return order
        allowed = set(
            top_features_by_impact_per_cost(self._last_matrix, budget)
        )
        return tuple(name for name in order if name in allowed)

    def _admit_features(
        self, subset: tuple[str, ...]
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Filter ``subset`` through the quarantine breaker.

        Returns ``(admitted, quarantined)`` and logs a QUARANTINE event
        for every blocked feature and every probation re-admission."""
        now = self._db.clock.now_ms
        admitted: list[str] = []
        quarantined: list[str] = []
        for name in subset:
            admission = self._quarantine.admit(name, now)
            if admission is Admission.QUARANTINED:
                quarantined.append(name)
                self._events.log(
                    now,
                    EventKind.QUARANTINE,
                    f"feature {name!r} quarantined for another "
                    f"{self._quarantine.remaining_ms(name, now):.0f} ms",
                    feature=name,
                    state="quarantined",
                    remaining_ms=self._quarantine.remaining_ms(name, now),
                )
                continue
            if admission is Admission.PROBATION:
                self._events.log(
                    now,
                    EventKind.QUARANTINE,
                    f"feature {name!r} re-admitted on probation",
                    feature=name,
                    state="probation",
                )
            admitted.append(name)
        return tuple(admitted), tuple(quarantined)

    def _record_run_outcomes(self, report: RecursiveTuningReport) -> None:
        """Feed per-feature application outcomes into the breaker, emit
        FAULT/ROLLBACK/QUARANTINE events for failed runs and a SKIP event
        for a feature whose selection had no feasible answer."""
        now = self._db.clock.now_ms
        for run in report.runs:
            if run.result.infeasible:
                self._events.log(
                    now,
                    EventKind.SKIP,
                    f"feature {run.feature!r} keeps its setting: "
                    f"{run.result.infeasible}",
                    feature=run.feature,
                    reason=run.result.infeasible,
                )
            if not run.failed:
                if self._quarantine.record_success(run.feature):
                    self._events.log(
                        now,
                        EventKind.QUARANTINE,
                        f"feature {run.feature!r} recovered: "
                        "quarantine closed after probation success",
                        feature=run.feature,
                        state="closed",
                    )
                continue
            self._events.log(
                now,
                EventKind.FAULT,
                f"feature {run.feature!r} application failed: {run.failure}",
                feature=run.feature,
                action=run.report.failed_action,
                retries=run.report.retries,
            )
            self._events.log(
                now,
                EventKind.ROLLBACK,
                f"rolled back {run.report.rollback_actions} actions of "
                f"feature {run.feature!r}",
                feature=run.feature,
                actions=run.report.rollback_actions,
                work_ms=run.report.rollback_work_ms,
            )
            if self._quarantine.record_failure(run.feature, now):
                self._events.log(
                    now,
                    EventKind.QUARANTINE,
                    f"feature {run.feature!r} quarantined after "
                    f"{self._quarantine.consecutive_failures(run.feature)} "
                    "consecutive failures",
                    feature=run.feature,
                    state="opened",
                    probation_ms=quarantine.PROBATION_MS,
                )

    def _begin_pass(self, decision: TriggerDecision):
        """Where every pass begins: forecast, guard note, interval, event.

        The forecast this pass tunes for is also the envelope the guard
        later judges the live workload against (forecast-miss
        detection). Per-pass metric deltas come from a registry interval
        read, so any counter a component registers (cache, executor,
        breaker, future subsystems) is automatically measurable
        over the pass.
        """
        now = self._db.clock.now_ms
        forecast = self._predictor.forecast(self._config.horizon_bins)
        self._guard.note_forecast(forecast)
        interval = self._telemetry.registry.interval()
        self._events.log(
            now,
            EventKind.TUNING_STARTED,
            f"tuning pass triggered by {decision.trigger}",
            trigger=decision.trigger,
            **decision.details,
        )
        return forecast, interval

    def _select_features(
        self, forecast: "Forecast", pass_span
    ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]] | None:
        """The pass body's feature selection: refresh the
        LP ordering when due, then filter the ordered features through
        the tuning-time budget and the quarantine breaker.

        Returns ``(subset, skipped, quarantined)``, or ``None`` when no
        feature survives — such a pass does no work, so it must not
        append a configuration record, restart the cooldown, or count
        against the order-refresh cadence.
        """
        refresh = (
            self._cached_order is None
            or self._runs_since_refresh >= ORDER_REFRESH_EVERY
        )
        if refresh and len(self._tuners) >= 2:
            with self._tracer.span("order_refresh") as order_span:
                matrix, solution = self._planner.plan_order(forecast)
                order_span.tag(
                    order=" -> ".join(solution.order),
                    objective=solution.objective,
                )
            self._cached_order = solution.order
            self._last_matrix = matrix
            self._runs_since_refresh = 0
            self._events.log(
                self._db.clock.now_ms,
                EventKind.ORDER_PLANNED,
                f"tuning order: {' -> '.join(solution.order)}",
                objective=solution.objective,
                solve_seconds=solution.solve_seconds,
            )
        order = self._cached_order or self._planner.feature_names
        subset = self._feature_subset(order)
        skipped = tuple(name for name in order if name not in subset)
        if not subset:
            self._events.log(
                self._db.clock.now_ms,
                EventKind.SKIP,
                "tuning skipped: time budget admits no feature",
                budget_ms=self._config.tuning_time_budget_ms,
                skipped=len(skipped),
            )
            pass_span.tag(skipped="time budget admits no feature")
            return None
        subset, quarantined = self._admit_features(subset)
        if not subset:
            self._events.log(
                self._db.clock.now_ms,
                EventKind.SKIP,
                "tuning skipped: all features quarantined",
                quarantined=list(quarantined),
            )
            pass_span.tag(skipped="all features quarantined")
            return None
        self._runs_since_refresh += 1
        return subset, skipped, quarantined

    def _record_commit(
        self,
        record: ConfigurationRecord,
        inverse_actions: Sequence["Action"],
    ) -> None:
        """Append a committed pass's record and open its probation — the
        step a tuned and a replayed pass share. The inverse actions are
        retained instead of discarded, so a confirmed KPI regression can
        undo the commit bit-identically (see repro.guard)."""
        self._store.append(record)
        self._guard.open_probation(record, tuple(inverse_actions))

    def _commit_pass(
        self,
        decision: TriggerDecision,
        interval,
        pass_span,
        report: RecursiveTuningReport,
    ) -> ConfigurationRecord:
        """The pass body's epilogue: feed outcomes to the breaker, append
        the configuration record, open guard probation, and log the
        TUNING_FINISHED accounting."""
        self._last_tuning_ms = self._db.clock.now_ms
        self._record_run_outcomes(report)

        # failed runs were rolled back: they contribute no actions,
        # no predicted benefit, and no feedback training pairs
        ok_runs = [r for r in report.runs if not r.failed]
        outcomes = tuple(
            FeatureOutcome(
                feature=r.feature,
                action_summaries=tuple(r.report.action_summaries),
                predicted_benefit_ms=r.result.predicted_benefit_ms,
                measured_benefit_ms=r.cost_before_ms - r.cost_after_ms,
                work_ms=r.report.total_work_ms,
            )
            for r in ok_runs
        )
        record = ConfigurationRecord(
            instance=ConfigurationInstance.capture(self._db),
            applied_at_ms=self._db.clock.now_ms,
            trigger=decision.trigger,
            predicted_benefit_ms=sum(o.predicted_benefit_ms for o in outcomes),
            measured_benefit_ms=report.initial_cost_ms - report.final_cost_ms,
            reconfiguration_cost_ms=report.total_reconfiguration_ms,
            actions=tuple(a for r in ok_runs for a in r.result.delta.actions),
            outcomes=outcomes,
            features=tuple(o.feature for o in outcomes if o.action_summaries),
        )
        self._record_commit(
            record, [a for r in ok_runs for a in r.report.inverse_actions]
        )
        deltas = interval.deltas()
        cache_hits = int(deltas.get(WHATIF_CACHE_HITS, 0.0))
        cache_misses = int(deltas.get(WHATIF_CACHE_MISSES, 0.0))
        cache_priced = cache_hits + cache_misses
        pass_span.tag(
            improvement=round(report.improvement, 4),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )
        if report.failed_features:
            pass_span.tag(failed_features=len(report.failed_features))
        self._events.log(
            self._db.clock.now_ms,
            EventKind.TUNING_FINISHED,
            f"workload cost {report.initial_cost_ms:.2f} -> "
            f"{report.final_cost_ms:.2f} ms "
            f"(what-if cache: {cache_hits} hits / {cache_misses} misses)",
            improvement=report.improvement,
            # reconfiguration_ms records *work* (sum of per-action
            # costs), not elapsed wall time; see docs/components.md
            reconfiguration_ms=report.total_reconfiguration_ms,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_evictions=int(deltas.get(WHATIF_CACHE_EVICTIONS, 0.0)),
            cache_hit_rate=(
                cache_hits / cache_priced if cache_priced else 0.0
            ),
        )
        return record

    def run_tuning(
        self, decision: TriggerDecision | None = None
    ) -> OrganizerRunReport | None:
        """The one pass body (also callable manually): begin, select the
        features, tune them in order — each proposing against the state
        its predecessors left behind — commit, report.

        Returns ``None``, with nothing recorded, when no feature survives
        the selection (no work was possible).
        """
        decision = decision or TriggerDecision(True, "manual", "manual request")
        forecast, interval = self._begin_pass(decision)

        with self._tracer.span(
            "tuning_pass", trigger=decision.trigger
        ) as pass_span:
            selected = self._select_features(forecast, pass_span)
            if selected is None:
                return None
            order, skipped, quarantined = selected
            report = self._planner.run(
                forecast, order=order, executor=self._executor
            )
            record = self._commit_pass(decision, interval, pass_span, report)
        run_report = OrganizerRunReport(
            decision=decision,
            order=order,
            tuning=report,
            record=record,
            skipped_features=skipped,
            quarantined_features=quarantined,
        )
        if self._commit_listener is not None:
            self._commit_listener(self, run_report)
        return run_report

    # kept for the second "core.run_tuning" row of TARGETS in
    # bench/tracing.py, which looks this name up; it goes with that row.
    # Nothing calls it.
    run_policy_pass = run_tuning

    # ------------------------------------------------------------------
    # fleet prior replay

    def replay_pass(
        self,
        actions: Sequence["Action"],
        *,
        features: tuple[str, ...] = (),
        source: str = "",
        predicted_benefit_ms: float = 0.0,
        cost_before_ms: float = 0.0,
        cost_after_ms: float = 0.0,
        forecast: "Forecast | None" = None,
    ) -> ApplicationReport | None:
        """Apply a committed pass harvested from a look-alike tenant.

        The cheap path of fleet tuning: instead of enumerating and
        assessing candidates, the forward ``actions`` of a pass another
        tenant already committed are applied through the failure-aware
        executor, recorded in the configuration store, and put on guard
        probation exactly like a locally tuned pass — the regression
        watchdog treats replayed and tuned commits identically. Callers
        (the fleet arbiter) are expected to have what-if validated the
        delta first; ``cost_before_ms``/``cost_after_ms`` carry that
        validation's pricing into the record. ``forecast`` — typically
        the cluster-level forecast the prior was validated against — is
        noted with the guard so forecast-miss escalation covers replayed
        tenants too. Counts as a tuning for cooldown/trigger purposes;
        does not re-fire the commit listener (no priors from replays).
        """
        if not actions:
            return None
        now = self._db.clock.now_ms
        self._events.log(
            now,
            EventKind.TUNING_STARTED,
            f"replaying committed pass from {source or 'prior'} "
            f"({len(actions)} actions)",
            trigger=FLEET_REPLAY_TRIGGER,
            source=source,
            actions=len(actions),
        )
        if forecast is not None:
            self._guard.note_forecast(forecast)
        delta = ConfigurationDelta(list(actions))
        with self._tracer.span(
            "replay_pass", source=source, actions=len(actions)
        ) as span:
            try:
                report = self._executor.execute(delta, self._db)
            except TuningAbortedError as exc:
                report = exc.report
                now = self._db.clock.now_ms
                self._last_tuning_ms = now
                span.tag(failed=True)
                self._events.log(
                    now,
                    EventKind.FAULT,
                    f"replayed pass from {source or 'prior'} failed: "
                    f"{exc}",
                    source=source,
                    action=report.failed_action,
                    retries=report.retries,
                )
                self._events.log(
                    now,
                    EventKind.ROLLBACK,
                    f"rolled back {report.rollback_actions} actions of "
                    "failed replay",
                    source=source,
                    actions=report.rollback_actions,
                    work_ms=report.rollback_work_ms,
                )
                return report
            now = self._db.clock.now_ms
            self._last_tuning_ms = now
            self._record_commit(
                ConfigurationRecord(
                    instance=ConfigurationInstance.capture(self._db),
                    applied_at_ms=now,
                    trigger=FLEET_REPLAY_TRIGGER,
                    predicted_benefit_ms=predicted_benefit_ms,
                    measured_benefit_ms=cost_before_ms - cost_after_ms,
                    reconfiguration_cost_ms=report.total_work_ms,
                    actions=tuple(actions),
                    features=features,
                ),
                report.inverse_actions,
            )
            span.tag(predicted_benefit_ms=round(predicted_benefit_ms, 3))
            self._events.log(
                now,
                EventKind.TUNING_FINISHED,
                f"replayed pass from {source or 'prior'} applied: "
                f"what-if {cost_before_ms:.2f} -> {cost_after_ms:.2f} ms "
                f"({len(report.action_summaries)} actions)",
                source=source,
                predicted_benefit_ms=predicted_benefit_ms,
                reconfiguration_ms=report.total_work_ms,
                cost_before_ms=cost_before_ms,
                cost_after_ms=cost_after_ms,
            )
        return report

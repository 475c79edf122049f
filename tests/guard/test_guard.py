"""CommitGuard state machine, driven with synthetic KPI samples."""

import pytest

from repro.configuration.actions import SetKnobAction
from repro.configuration.store import (
    ConfigurationInstanceStorage,
    ConfigurationRecord,
)
from repro.core.events import EventKind, EventLog
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.forecasting.scenarios import Forecast, WorkloadScenario
from repro.guard import (
    CommitGuard,
    CommitResolution,
    RegressionStatus,
    RegressionVerdict,
)
from repro.kpi.metrics import (
    GUARD_COMMITS,
    GUARD_ESCALATIONS,
    GUARD_FORECAST_MISSES,
    GUARD_PASSED,
    GUARD_REGRESSIONS,
    GUARD_ROLLBACKS,
    GUARD_SUPERSEDED,
    MEAN_QUERY_MS,
    QUERIES_EXECUTED,
    KPISample,
)
from repro.telemetry.metrics import MetricRegistry


class FakeMonitor:
    """Monitor stand-in: the guard only reads ``history()``."""

    def __init__(self):
        self._samples = []

    def add(self, at_ms, mean_ms, queries=10):
        self._samples.append(
            KPISample(
                at_ms=at_ms,
                values={MEAN_QUERY_MS: mean_ms, QUERIES_EXECUTED: queries},
            )
        )

    def history(self):
        return tuple(self._samples)


class FakePredictor:
    """Predictor stand-in: returns a fixed observed mix."""

    def __init__(self, frequencies):
        self.frequencies = dict(frequencies)

    def recent_scenario(self, window_bins, horizon_bins, name="observed"):
        return WorkloadScenario(
            name=name, probability=1.0, frequencies=dict(self.frequencies)
        )


def _forecast(**frequencies):
    return Forecast(
        scenarios=(
            WorkloadScenario(
                name="expected", probability=1.0, frequencies=frequencies
            ),
        ),
        horizon_bins=4,
        bin_duration_ms=60_000.0,
    )


@pytest.fixture(autouse=True)
def short_windows(monkeypatch):
    """Windows a handful of synthetic samples can fill."""
    monkeypatch.setattr("repro.guard.guard.BASELINE_SAMPLES", 2)
    monkeypatch.setattr("repro.guard.regression.MIN_SAMPLES", 2)
    monkeypatch.setattr("repro.guard.guard.PROBATION_SAMPLES", 4)
    monkeypatch.setattr("repro.guard.guard.ESCALATION_COOLDOWN_MS", 1_000.0)


def _guard():
    monitor = FakeMonitor()
    registry = MetricRegistry()
    events = EventLog()
    guard = CommitGuard(
        monitor,
        ConfigurationInstanceStorage(),
        registry=registry,
        events=events,
    )
    return guard, monitor, registry, events


def _open(
    guard,
    now_ms,
    features=("index_selection",),
    inverse_actions=(SetKnobAction(SCAN_THREADS_KNOB, 1),),
):
    """Record a committed pass the way the organizer does: append, then
    hand the record and its inverse actions to the guard."""
    record = ConfigurationRecord(
        None, now_ms, "test", 0.0, 0.0, 0.0, features=features
    )
    guard._store.append(record)
    return guard.open_probation(record, inverse_actions)


#: a confirmed regression to resolve a rollback with
_CONFIRMED = RegressionVerdict(
    RegressionStatus.CONFIRMED, MEAN_QUERY_MS, 5.0, 9.0, 2
)


def test_probation_opens_with_pre_commit_baseline():
    guard, monitor, registry, events = _guard()
    monitor.add(1.0, 100.0)  # outside the baseline window
    monitor.add(2.0, 5.0)
    monitor.add(3.0, 7.0)
    commit = _open(guard, now_ms=10.0)
    assert commit is not None
    assert guard.active_commit is commit
    assert commit.baseline_ms == pytest.approx(6.0)  # last 2 busy samples
    assert commit.baseline_sample_count == 2
    assert registry.snapshot()[GUARD_COMMITS] == 1
    event = events.latest(EventKind.GUARD)
    assert event.data["state"] == "on_probation"


def test_no_probation_when_nothing_reversible():
    guard, monitor, _, _ = _guard()
    monitor.add(1.0, 5.0)
    assert _open(guard, now_ms=10.0, inverse_actions=()) is None
    assert guard.active_commit is None


def test_confirmed_regression_is_reported_not_resolved():
    guard, monitor, registry, _ = _guard()
    monitor.add(1.0, 5.0)
    monitor.add(2.0, 5.0)
    commit = _open(guard, now_ms=10.0)
    monitor.add(11.0, 9.0)
    monitor.add(12.0, 9.0)  # +80% over baseline for 2 busy samples
    result = guard.check_regression(13.0)
    assert result is not None
    reported, verdict = result
    assert reported is commit
    assert verdict.confirmed
    # the guard reports; only the organizer's rollback resolves
    assert guard.active_commit is commit
    assert registry.snapshot()[GUARD_REGRESSIONS] == 1

    resolved, offenders = guard.resolve_rollback(14.0, verdict)
    assert resolved is commit
    assert resolved.resolution is CommitResolution.ROLLED_BACK
    assert resolved.observed_ms == verdict.observed_ms == 9.0
    assert offenders == ()
    assert guard.regression_streak("index_selection") == 1
    assert registry.snapshot()[GUARD_ROLLBACKS] == 1


def test_commit_passes_after_probation_window():
    guard, monitor, registry, events = _guard()
    monitor.add(1.0, 5.0)
    commit = _open(guard, now_ms=10.0)
    for i in range(4):  # probation_samples healthy post-commit samples
        monitor.add(11.0 + i, 5.0)
    assert guard.check_regression(20.0) is None
    assert guard.active_commit is None
    assert commit.resolution is CommitResolution.PASSED
    assert commit.observed_ms == 5.0
    assert registry.snapshot()[GUARD_PASSED] == 1
    assert events.latest(EventKind.GUARD).data["state"] == "passed"


def test_passing_clears_the_regression_streak():
    guard, monitor, _, _ = _guard()
    monitor.add(1.0, 5.0)
    _open(guard, now_ms=10.0)
    monitor.add(11.0, 9.0)
    monitor.add(12.0, 9.0)
    _, verdict = guard.check_regression(13.0)
    guard.resolve_rollback(13.0, verdict)
    assert guard.regression_streak("index_selection") == 1
    # a later commit of the same feature survives probation
    _open(guard, now_ms=20.0)
    for i in range(4):
        monitor.add(21.0 + i, 9.0)  # matches the new baseline: healthy
    guard.check_regression(30.0)
    assert guard.regression_streak("index_selection") == 0


def test_repeat_offender_flagged_and_streak_reset():
    guard, monitor, _, _ = _guard()
    monitor.add(1.0, 5.0)
    _open(guard, now_ms=10.0)
    _, offenders = guard.resolve_rollback(11.0, _CONFIRMED)
    assert offenders == ()
    _open(guard, now_ms=20.0)
    _, offenders = guard.resolve_rollback(21.0, _CONFIRMED)
    assert offenders == ("index_selection",)
    # flagged features start over after their quarantine probation
    assert guard.regression_streak("index_selection") == 0


def test_superseding_commit_counts_and_logs():
    guard, monitor, registry, events = _guard()
    monitor.add(1.0, 5.0)
    first = _open(guard, now_ms=10.0)
    second = _open(guard, now_ms=20.0)
    assert guard.active_commit is second
    assert first.resolution is CommitResolution.SUPERSEDED
    snap = registry.snapshot()
    assert snap[GUARD_COMMITS] == 2
    assert snap[GUARD_SUPERSEDED] == 1
    superseded = [
        e
        for e in events.events(EventKind.GUARD)
        if e.data.get("state") == "superseded"
    ]
    assert superseded and superseded[0].data["superseded_by"] == 2


def test_forecast_miss_escalates_after_patience():
    guard, _, registry, events = _guard()
    guard.note_forecast(_forecast(a=10.0))
    predictor = FakePredictor({"b": 10.0})
    assert guard.check_forecast_miss(100.0, predictor) is None  # streak 1
    assert guard.miss_streak == 1
    verdict = guard.check_forecast_miss(200.0, predictor)
    assert verdict is not None and verdict.escalate
    snap = registry.snapshot()
    assert snap[GUARD_FORECAST_MISSES] == 2
    assert snap[GUARD_ESCALATIONS] == 1
    assert events.latest(EventKind.GUARD).data["state"] == "forecast_miss"


def test_escalation_cooldown_and_forecast_reset():
    guard, _, registry, _ = _guard()
    guard.note_forecast(_forecast(a=10.0))
    predictor = FakePredictor({"b": 10.0})
    guard.check_forecast_miss(100.0, predictor)
    assert guard.check_forecast_miss(200.0, predictor).escalate
    # within the cooldown nothing is even observed
    guard.check_forecast_miss(300.0, predictor)
    guard.check_forecast_miss(400.0, predictor)
    assert registry.snapshot()[GUARD_ESCALATIONS] == 1
    # adopting a fresh forecast resets the miss streak
    guard.check_forecast_miss(2_000.0, predictor)
    assert guard.miss_streak == 1
    guard.note_forecast(_forecast(a=10.0))
    assert guard.miss_streak == 0


def test_forecast_miss_needs_evidence():
    guard, _, _, _ = _guard()
    # no forecast noted: never escalates
    assert guard.check_forecast_miss(100.0, FakePredictor({"b": 1.0})) is None
    guard.note_forecast(_forecast(a=10.0))
    # an all-idle observation window carries no evidence
    assert guard.check_forecast_miss(200.0, FakePredictor({})) is None
    assert guard.miss_streak == 0

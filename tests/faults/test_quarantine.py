"""Tests for the per-feature quarantine circuit breaker."""

from repro.faults import Admission, FeatureQuarantine, QuarantineState
from repro.faults.quarantine import FAILURE_THRESHOLD, PROBATION_MS
from repro.kpi.metrics import QUARANTINE_CLOSED, QUARANTINE_OPENED
from repro.telemetry.metrics import MetricRegistry


def _trip(q, feature, now_ms):
    """Fail ``feature`` until its breaker opens at ``now_ms``."""
    for _ in range(FAILURE_THRESHOLD - 1):
        assert not q.record_failure(feature, now_ms)
    assert q.record_failure(feature, now_ms)


def test_opens_after_k_consecutive_failures():
    assert FAILURE_THRESHOLD == 3
    q = FeatureQuarantine()
    assert not q.record_failure("idx", 0.0)
    assert not q.record_failure("idx", 1.0)
    assert q.state("idx") is QuarantineState.CLOSED
    assert q.record_failure("idx", 2.0)  # third failure opens
    assert q.state("idx") is QuarantineState.OPEN
    assert q.admit("idx", 3.0) is Admission.QUARANTINED
    assert q.quarantined_features() == ("idx",)


def test_success_resets_the_failure_streak():
    q = FeatureQuarantine()
    q.record_failure("idx", 0.0)
    q.record_failure("idx", 1.0)
    q.record_success("idx")
    assert not q.record_failure("idx", 2.0)  # streak restarted
    assert q.state("idx") is QuarantineState.CLOSED
    assert q.consecutive_failures("idx") == 1


def test_probation_after_window_then_close_on_success():
    q = FeatureQuarantine()
    _trip(q, "idx", 0.0)
    half = PROBATION_MS / 2
    assert q.admit("idx", half) is Admission.QUARANTINED
    assert q.remaining_ms("idx", half) == PROBATION_MS - half
    assert q.admit("idx", PROBATION_MS) is Admission.PROBATION
    assert q.state("idx") is QuarantineState.HALF_OPEN
    assert q.record_success("idx")  # closed from probation
    assert q.state("idx") is QuarantineState.CLOSED
    assert q.admit("idx", PROBATION_MS + 1.0) is Admission.ADMITTED


def test_probation_failure_reopens_immediately():
    q = FeatureQuarantine()
    _trip(q, "idx", 0.0)
    later = 2 * PROBATION_MS
    assert q.admit("idx", later) is Admission.PROBATION
    # one failure on probation re-opens, regardless of the threshold
    assert q.record_failure("idx", later)
    assert q.state("idx") is QuarantineState.OPEN
    assert q.remaining_ms("idx", later) == PROBATION_MS


def test_features_are_independent():
    q = FeatureQuarantine()
    _trip(q, "idx", 0.0)
    assert q.admit("idx", 0.0) is Admission.QUARANTINED
    assert q.admit("compression", 0.0) is Admission.ADMITTED
    assert q.state("compression") is QuarantineState.CLOSED


def test_counters_track_open_and_close():
    registry = MetricRegistry()
    q = FeatureQuarantine(registry=registry)
    _trip(q, "idx", 0.0)
    q.admit("idx", PROBATION_MS)
    q.record_success("idx")
    _trip(q, "idx", 2 * PROBATION_MS)
    snap = registry.snapshot()
    assert snap[QUARANTINE_OPENED] == 2
    assert snap[QUARANTINE_CLOSED] == 1


def test_snapshot_view():
    q = FeatureQuarantine()
    _trip(q, "idx", 42.0)
    snap = q.snapshot()
    assert snap["idx"]["state"] == "open"
    assert snap["idx"]["consecutive_failures"] == FAILURE_THRESHOLD
    assert snap["idx"]["opened_at_ms"] == 42.0

"""RegressionDetector invariants: noise-aware windowed KPI comparison."""

import pytest

from repro.guard import RegressionDetector, RegressionStatus
from repro.kpi.metrics import MEAN_QUERY_MS, QUERIES_EXECUTED, KPISample


def _sample(at_ms, mean_ms, queries=10):
    return KPISample(
        at_ms=at_ms,
        values={MEAN_QUERY_MS: mean_ms, QUERIES_EXECUTED: queries},
    )


def test_idle_samples_carry_no_evidence():
    samples = [
        _sample(1.0, 5.0),
        _sample(2.0, 0.0, queries=0),  # idle: excluded everywhere
        _sample(3.0, 7.0),
    ]
    assert len(RegressionDetector.busy(samples)) == 2
    baseline, count = RegressionDetector().baseline(samples, last_n=4)
    assert baseline == pytest.approx(6.0)
    assert count == 2


def test_baseline_unusable_without_busy_samples():
    detector = RegressionDetector()
    assert detector.baseline([], last_n=4) == (0.0, 0)
    assert detector.baseline([_sample(1.0, 0.0, queries=0)], last_n=4) == (
        0.0,
        0,
    )
    # and a zero baseline keeps every verdict pending — no evidence, no
    # rollback, no matter how slow the post-commit window looks
    verdict = detector.evaluate(0.0, [_sample(i, 99.0) for i in range(9)])
    assert verdict.status is RegressionStatus.PENDING
    assert verdict.regression == 0.0


def test_baseline_uses_only_the_last_n_busy_samples():
    samples = [_sample(float(i), 100.0) for i in range(3)]
    samples += [_sample(float(10 + i), 4.0) for i in range(2)]
    baseline, count = RegressionDetector().baseline(samples, last_n=2)
    assert baseline == pytest.approx(4.0)
    assert count == 2


def test_pending_until_min_samples():
    detector = RegressionDetector()
    post = [_sample(1.0, 50.0), _sample(2.0, 50.0)]
    assert detector.evaluate(5.0, post).status is RegressionStatus.PENDING


def test_clear_within_relative_bound():
    detector = RegressionDetector()
    post = [_sample(float(i), 6.0) for i in range(3)]  # +20% over 5.0
    verdict = detector.evaluate(5.0, post)
    assert verdict.status is RegressionStatus.CLEAR
    assert verdict.regression == pytest.approx(0.2)
    assert not verdict.confirmed


def test_confirmed_beyond_relative_bound():
    detector = RegressionDetector()
    post = [_sample(float(i), 8.0) for i in range(3)]  # +60% over 5.0
    verdict = detector.evaluate(5.0, post)
    assert verdict.confirmed
    assert verdict.observed_ms == pytest.approx(8.0)
    assert verdict.sample_count == 3
    assert verdict.regression == pytest.approx(0.6)


def test_single_slow_bin_never_condemns_a_commit():
    # one 3x-slow sample among fast ones stays inside the 30% bound
    detector = RegressionDetector()
    post = [_sample(1.0, 15.0), _sample(2.0, 5.0), _sample(3.0, 5.0)]
    verdict = detector.evaluate(7.0, post)
    assert verdict.status is RegressionStatus.CLEAR

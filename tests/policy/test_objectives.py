"""Unit tests for declarative objectives (fakes, no databases)."""

from types import SimpleNamespace

import pytest

from repro.core.triggers import TuningTrigger
from repro.errors import PolicyError
from repro.kpi.metrics import (
    INDEX_MEMORY_BYTES,
    MEAN_QUERY_MS,
    MEMORY_BYTES,
    P99_QUERY_MS,
    THROUGHPUT_QPS,
)
from repro.policy.objectives import (
    LatencyObjective,
    MemoryBudgetObjective,
    PlanMetrics,
    Policy,
    ThroughputObjective,
    TriggerObjective,
    slugify,
)


class _FakeMonitor:
    """The slice of RuntimeKPIMonitor the objectives read."""

    def __init__(self, means=None, latest=None):
        self._means = means or {}
        self.latest = latest

    def mean(self, metric, last_n=None):
        return self._means.get(metric, 0.0)


def _context(means=None, latest=None):
    return SimpleNamespace(monitor=_FakeMonitor(means, latest))


def _metrics(expected=5.0, baseline=10.0, **kwargs):
    return PlanMetrics(
        expected_cost_ms=expected, baseline_cost_ms=baseline, **kwargs
    )


class _StubTrigger(TuningTrigger):
    name = "stub"

    def __init__(self, fire):
        self._fire = fire

    def evaluate(self, context):
        return self._yes("stub fired") if self._fire else self._no("quiet")


# ----------------------------------------------------------------------
# latency


def test_latency_objective_satisfied_with_positive_margin():
    obj = LatencyObjective(bound_ms=10.0)
    status = obj.evaluate(_context({P99_QUERY_MS: 5.0}))
    assert status.satisfied
    assert status.metric == P99_QUERY_MS
    assert status.margin == pytest.approx(0.5)


def test_latency_objective_violated_with_negative_margin():
    obj = LatencyObjective(bound_ms=10.0, metric=MEAN_QUERY_MS)
    status = obj.evaluate(_context({MEAN_QUERY_MS: 15.0}))
    assert not status.satisfied
    assert status.margin == pytest.approx(-0.5)


def test_latency_predict_scales_observed_by_cost_ratio():
    obj = LatencyObjective(bound_ms=10.0)
    # a plan predicted to halve workload cost halves the latency KPI
    status = obj.predict(
        _metrics(expected=5.0, baseline=10.0),
        _context({P99_QUERY_MS: 12.0}),
    )
    assert status.value == pytest.approx(6.0)
    assert status.satisfied


def test_latency_objective_rejects_bad_args():
    with pytest.raises(PolicyError):
        LatencyObjective(bound_ms=0.0)
    with pytest.raises(PolicyError):
        LatencyObjective(bound_ms=1.0, metric="not_a_metric")
    with pytest.raises(PolicyError):
        LatencyObjective(bound_ms=1.0, weight=0.0)


# ----------------------------------------------------------------------
# memory


def test_memory_objective_reads_latest_sample():
    obj = MemoryBudgetObjective(bound_bytes=1_000.0)
    status = obj.evaluate(_context(latest={INDEX_MEMORY_BYTES: 500.0}))
    assert status.satisfied
    assert status.margin == pytest.approx(0.5)
    # a cold monitor (no sample yet) reads as zero usage
    assert obj.evaluate(_context(latest=None)).satisfied


def test_memory_predict_uses_hypothetical_accounting():
    index = MemoryBudgetObjective(bound_bytes=1_000.0)
    total = MemoryBudgetObjective(bound_bytes=1_000.0, metric=MEMORY_BYTES)
    metrics = _metrics(memory_bytes=2_000.0, index_bytes=400.0)
    assert index.predict(metrics, _context()).satisfied
    assert not total.predict(metrics, _context()).satisfied


# ----------------------------------------------------------------------
# throughput


def test_throughput_objective_floor():
    obj = ThroughputObjective(min_qps=100.0)
    assert not obj.evaluate(_context({THROUGHPUT_QPS: 50.0})).satisfied
    assert obj.evaluate(_context({THROUGHPUT_QPS: 150.0})).satisfied


def test_throughput_cold_monitor_is_no_evidence_not_a_breach():
    obj = ThroughputObjective(min_qps=100.0)
    status = obj.evaluate(_context({THROUGHPUT_QPS: 0.0}))
    assert status.satisfied
    assert status.margin == 0.0
    assert "no throughput" in status.detail


def test_throughput_predict_scales_inversely_with_cost():
    obj = ThroughputObjective(min_qps=100.0)
    # halving per-query cost doubles the predicted throughput
    status = obj.predict(
        _metrics(expected=5.0, baseline=10.0),
        _context({THROUGHPUT_QPS: 60.0}),
    )
    assert status.value == pytest.approx(120.0)
    assert status.satisfied


# ----------------------------------------------------------------------
# degenerate trigger objectives


def test_trigger_objective_violated_iff_trigger_fires():
    firing = TriggerObjective(_StubTrigger(fire=True))
    quiet = TriggerObjective(_StubTrigger(fire=False))
    assert not firing.evaluate(_context()).satisfied
    assert firing.evaluate(_context()).detail == "stub fired"
    assert quiet.evaluate(_context()).satisfied


def test_trigger_objective_any_plan_discharges_it():
    obj = TriggerObjective(_StubTrigger(fire=True))
    assert obj.predict(_metrics(), _context()).satisfied


# ----------------------------------------------------------------------
# composite policy


def test_policy_composes_weighted_margins():
    policy = Policy(
        name="slo",
        objectives=(
            LatencyObjective(bound_ms=10.0, weight=2.0),
            MemoryBudgetObjective(bound_bytes=1_000.0),
        ),
    )
    assessment = policy.assess(
        _context(
            means={P99_QUERY_MS: 5.0},
            latest={INDEX_MEMORY_BYTES: 1_500.0},
        )
    )
    assert not assessment.satisfied
    # 2.0 * 0.5 (latency headroom) + 1.0 * -0.5 (memory breach)
    assert assessment.score == pytest.approx(0.5)
    assert [s.metric for s in assessment.violated] == [INDEX_MEMORY_BYTES]
    details = assessment.details()
    assert details["policy_score"] == pytest.approx(0.5)
    assert details[f"{INDEX_MEMORY_BYTES}_margin"] == pytest.approx(-0.5)


def test_policy_violated_sorted_worst_first():
    policy = Policy(
        name="slo",
        objectives=(
            LatencyObjective(bound_ms=10.0),
            ThroughputObjective(min_qps=100.0),
        ),
    )
    assessment = policy.assess(
        _context(means={P99_QUERY_MS: 30.0, THROUGHPUT_QPS: 90.0})
    )
    # latency is 3x over (margin -2.0), throughput 10% short (-0.1)
    assert [s.metric for s in assessment.violated] == [
        P99_QUERY_MS,
        THROUGHPUT_QPS,
    ]


def test_policy_requires_objectives():
    with pytest.raises(PolicyError):
        Policy(name="empty", objectives=())


def test_slugify():
    assert slugify("p99 under 2 ms!") == "p99_under_2_ms"
    assert slugify("***") == "objective"


def test_declared_name_keys_the_status_and_stays_as_written():
    obj = LatencyObjective(bound_ms=10.0, name="Tail Latency!")
    assert obj.name == "Tail Latency!"
    assert obj.evaluate(_context({P99_QUERY_MS: 5.0})).name == "tail_latency"
    # undeclared, the status is keyed by the metric (by the trigger name
    # for a trigger objective)
    assert LatencyObjective(bound_ms=10.0).slug == P99_QUERY_MS
    assert LatencyObjective(bound_ms=10.0, metric="mean").slug == MEAN_QUERY_MS
    assert TriggerObjective(_StubTrigger(fire=False)).slug == "trigger_stub"


def test_trigger_objective_takes_a_trigger_and_a_weight_only():
    obj = TriggerObjective(_StubTrigger(fire=False), weight=2.0)
    assert obj.weight == 2.0
    with pytest.raises(TypeError):
        TriggerObjective(_StubTrigger(fire=False), name="renamed")

"""Tests for the policy declaration: the objectives, the dict/YAML
grammar, and that every bad declaration is refused where it is made."""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.kpi.metrics import (
    INDEX_MEMORY_BYTES,
    MEAN_QUERY_MS,
    MEMORY_BYTES,
    P99_QUERY_MS,
    THROUGHPUT_QPS,
)
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.policy.engine import PolicyEngine
from repro.policy.objectives import (
    LatencyObjective,
    MemoryBudgetObjective,
    Policy,
    ThroughputObjective,
)
from repro.telemetry.metrics import MetricRegistry
from repro.util.units import MIB
from tests.conftest import make_small_database


def _one(entry):
    """The objective a one-entry policy document declares."""
    (objective,) = Policy.from_dict({"objectives": [entry]}).objectives
    return objective


# ----------------------------------------------------------------------
# one objective entry


def test_spec_fills_per_kind_default_metric():
    assert _one({"kind": "latency", "max_ms": 2.0}).metric == P99_QUERY_MS
    assert _one({"kind": "memory", "max_mib": 1}).metric == INDEX_MEMORY_BYTES
    assert _one({"kind": "throughput", "min_qps": 1}).metric == THROUGHPUT_QPS


def test_spec_resolves_metric_aliases():
    # the same aliases hold for a document and for direct construction
    mean = _one({"kind": "latency", "max_ms": 2.0, "metric": "mean"})
    assert mean.metric == MEAN_QUERY_MS
    assert LatencyObjective(bound_ms=2.0, metric="p99").metric == P99_QUERY_MS
    assert (
        MemoryBudgetObjective(bound_bytes=1.0, metric="total").metric
        == MEMORY_BYTES
    )
    # canonical names pass through unchanged
    assert (
        LatencyObjective(bound_ms=2.0, metric=MEAN_QUERY_MS).metric
        == MEAN_QUERY_MS
    )


def test_spec_rejects_bad_input():
    with pytest.raises(PolicyError, match="unknown objective kind 'latncy'"):
        _one({"kind": "latncy", "max_ms": 1.0})
    with pytest.raises(PolicyError, match="bound_ms must be positive"):
        LatencyObjective(bound_ms=0.0)
    with pytest.raises(PolicyError, match="latency metric"):
        LatencyObjective(bound_ms=1.0, metric="qps")
    with pytest.raises(PolicyError, match="memory metric"):
        MemoryBudgetObjective(bound_bytes=1.0, metric="p99")
    # a zero weight is refused with the document, not when a driver attaches
    with pytest.raises(PolicyError, match="weight must be positive"):
        _one({"kind": "latency", "max_ms": 1.0, "weight": 0})
    with pytest.raises(PolicyError, match="max_ms must be a number"):
        _one({"kind": "latency", "max_ms": "fast"})
    with pytest.raises(PolicyError, match="must be a mapping"):
        _one("latency")


def test_spec_from_dict_maps_bound_keys():
    assert _one({"kind": "latency", "max_ms": 1.5}).bound_ms == 1.5
    assert _one({"kind": "memory", "max_mib": 2}).bound_bytes == 2 * MIB
    assert _one({"kind": "memory", "max_bytes": 4_096}).bound_bytes == 4_096
    throughput = _one({"kind": "throughput", "min_qps": 50, "weight": 2.0})
    assert throughput.min_qps == 50
    assert throughput.weight == 2.0


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(PolicyError, match="unknown keys"):
        _one({"kind": "latency", "max_ms": 1.5, "max_qps": 10})


# ----------------------------------------------------------------------
# the policy


def test_config_from_dict_and_build():
    policy = Policy.from_dict(
        {
            "name": "slo",
            "objectives": [
                {"kind": "latency", "max_ms": 1.5, "weight": 2.0},
                {"kind": "memory", "max_mib": 64},
                {"kind": "throughput", "min_qps": 100},
            ],
            "window_bins": 4,
            "violation_patience": 3,
        }
    )
    assert policy.name == "slo"
    assert policy.violation_patience == 3
    latency, memory, throughput = policy.objectives
    assert latency == LatencyObjective(bound_ms=1.5, weight=2.0, window_bins=4)
    assert memory == MemoryBudgetObjective(bound_bytes=64 * MIB)
    assert throughput == ThroughputObjective(min_qps=100, window_bins=4)


def test_config_validation():
    latency = LatencyObjective(bound_ms=1.0)
    with pytest.raises(PolicyError):
        Policy(objectives=())
    with pytest.raises(PolicyError, match="window_bins"):
        LatencyObjective(bound_ms=1.0, window_bins=0)
    with pytest.raises(PolicyError, match="violation_patience"):
        Policy(objectives=(latency,), violation_patience=0)
    with pytest.raises(PolicyError, match="max_alternatives"):
        Policy(objectives=(latency,), max_alternatives=0)
    with pytest.raises(PolicyError, match="objectives"):
        Policy.from_dict({"objectives": []})
    # refused even when no declared objective reads the window
    with pytest.raises(PolicyError, match="window_bins must be at least 1"):
        Policy.from_dict(
            {"objectives": [{"kind": "memory", "max_mib": 1}], "window_bins": 0}
        )
    with pytest.raises(PolicyError, match="unknown policy config keys"):
        Policy.from_dict(
            {"objectives": [{"kind": "latency", "max_ms": 1}], "mode": "x"}
        )


def test_config_yaml_round_trip():
    policy = Policy.from_yaml(
        "name: latency-slo\n"
        "objectives:\n"
        "  - kind: latency\n"
        "    metric: p99\n"
        "    max_ms: 1.5\n"
        "  - kind: memory\n"
        "    max_mib: 64\n"
        "violation_patience: 2\n"
    )
    assert policy.name == "latency-slo"
    assert policy.objectives[0].metric == P99_QUERY_MS
    assert policy.objectives[1].bound_bytes == 64 * MIB


def test_config_yaml_must_be_a_mapping():
    with pytest.raises(PolicyError, match="mapping"):
        Policy.from_yaml("- just\n- a\n- list\n")


def test_yaml_syntax_error_is_a_one_line_policy_error():
    with pytest.raises(PolicyError, match="not a YAML document") as refused:
        Policy.from_yaml("objectives: [\n")
    assert "\n" not in str(refused.value)


def test_config_is_picklable():
    # fleet process workers ship the policy inside DriverConfig
    policy = Policy(objectives=(LatencyObjective(bound_ms=1.5),))
    clone = pickle.loads(pickle.dumps(policy))
    assert clone == policy


# ----------------------------------------------------------------------
# generated declarations: refused with PolicyError, or usable end to end

_BOUND_KEYS = {
    "latency": st.just("max_ms"),
    "latncy": st.just("max_ms"),
    "memory": st.sampled_from(["max_mib", "max_bytes"]),
    "throughput": st.just("min_qps"),
}
_NUMBERS = st.sampled_from([-1.0, 0, 0.5, 2, 64.0])
_METRICS = st.sampled_from(
    ["p99", "mean", MEAN_QUERY_MS, "index", "total", MEMORY_BYTES, "qps"]
)
_COUNTS = st.integers(min_value=0, max_value=3)

_OBJECTIVES = st.sampled_from(sorted(_BOUND_KEYS)).flatmap(
    lambda kind: _BOUND_KEYS[kind].flatmap(
        lambda bound: st.fixed_dictionaries(
            {"kind": st.just(kind), bound: _NUMBERS},
            optional={
                "weight": _NUMBERS,
                "metric": _METRICS,
                "name": st.sampled_from(["slo", "Tail Latency!"]),
                "max_qps": _NUMBERS,  # no kind knows this key
            },
        )
    )
)
_DECLARATIONS = st.fixed_dictionaries(
    {"objectives": st.lists(_OBJECTIVES, min_size=1, max_size=3)},
    optional={
        "violation_patience": _COUNTS,
        "max_alternatives": _COUNTS,
        "window_bins": _COUNTS,
        "mode": st.just("eager"),  # not a policy key
    },
)

#: the metric spellings each kind accepts (throughput takes no metric)
_ACCEPTED_METRICS = {
    "latency": {"p99", "mean", MEAN_QUERY_MS},
    "memory": {"index", "total", MEMORY_BYTES},
    "throughput": set(),
}


#: the keys of an objective entry whose values are not numbers
_WORDS = ("kind", "metric", "name")


def _acceptable(declaration) -> bool:
    """The grammar's verdict, restated for the generated shapes."""
    if "mode" in declaration or min(
        declaration.get("violation_patience", 1),
        declaration.get("max_alternatives", 1),
        declaration.get("window_bins", 1),
    ) < 1:
        return False
    for entry in declaration["objectives"]:
        metrics = _ACCEPTED_METRICS.get(entry["kind"])
        if metrics is None or "max_qps" in entry:
            return False
        if "metric" in entry and entry["metric"] not in metrics:
            return False
        numbers = (v for k, v in entry.items() if k not in _WORDS)
        if min(numbers) <= 0:
            return False
    return True


@pytest.fixture(scope="module")
def warmed_context():
    """A monitor with a few sampled intervals over a small database."""
    db = make_small_database(rows=1_000)
    monitor = RuntimeKPIMonitor(db)
    for _ in range(3):
        db.execute("SELECT COUNT(*) FROM events")
        db.clock.advance(1_000)
        monitor.sample()
    return SimpleNamespace(monitor=monitor)


@settings(max_examples=60, deadline=None)
@given(declaration=_DECLARATIONS)
def test_a_declaration_is_refused_or_usable(warmed_context, declaration):
    try:
        policy = Policy.from_dict(declaration)
    except PolicyError:
        assert not _acceptable(declaration)
        return
    assert _acceptable(declaration)
    assert pickle.loads(pickle.dumps(policy)) == policy
    engine = PolicyEngine(policy, MetricRegistry())
    assessment = engine.assess(warmed_context)
    assert len(assessment.statuses) == len(policy.objectives)

"""Tests for the seeded fault injector."""

import pytest

from repro.configuration.actions import SetKnobAction
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.errors import ActionError
from repro.faults import FaultConfig, FaultInjector
from repro.kpi.metrics import (
    FAULTS_INJECTED,
    FAULTS_PERMANENT,
    FAULTS_TRANSIENT,
)
from repro.telemetry.metrics import MetricRegistry

_ACTION = SetKnobAction(SCAN_THREADS_KNOB, 4)


def _schedule(injector: FaultInjector, rolls: int = 200) -> list[str]:
    """The injector's outcome sequence over ``rolls`` attempts."""
    outcomes = []
    for _ in range(rolls):
        try:
            injector.before_apply(_ACTION)
            outcomes.append("ok")
        except ActionError as exc:
            outcomes.append("transient" if exc.transient else "permanent")
    return outcomes


def test_same_seed_same_fault_schedule():
    config = FaultConfig(seed=7, failure_rate=0.3)
    assert _schedule(FaultInjector(config)) == _schedule(FaultInjector(config))


def test_different_seeds_differ():
    a = FaultConfig(seed=1, failure_rate=0.3)
    b = FaultConfig(seed=2, failure_rate=0.3)
    assert _schedule(FaultInjector(a)) != _schedule(FaultInjector(b))


def test_failure_rate_is_respected():
    config = FaultConfig(seed=0, failure_rate=0.1)
    outcomes = _schedule(FaultInjector(config), rolls=2000)
    failures = sum(1 for o in outcomes if o in ("transient", "permanent"))
    assert 0.05 < failures / 2000 < 0.15


def test_zero_rate_never_fails():
    injector = FaultInjector(FaultConfig(seed=0, failure_rate=0.0))
    assert all(o == "ok" for o in _schedule(injector))


def test_transient_fraction_extremes():
    all_transient = FaultInjector(
        FaultConfig(seed=5, failure_rate=1.0, transient_fraction=1.0)
    )
    all_permanent = FaultInjector(
        FaultConfig(seed=5, failure_rate=1.0, transient_fraction=0.0)
    )
    assert all(o == "transient" for o in _schedule(all_transient, rolls=50))
    assert all(o == "permanent" for o in _schedule(all_permanent, rolls=50))


def test_counters_in_registry():
    registry = MetricRegistry()
    injector = FaultInjector(
        FaultConfig(seed=11, failure_rate=0.5),
        registry=registry,
    )
    outcomes = _schedule(injector, rolls=100)
    values = registry.snapshot()
    failures = sum(1 for o in outcomes if o in ("transient", "permanent"))
    assert values[FAULTS_INJECTED] == failures
    assert values[FAULTS_TRANSIENT] == sum(
        1 for o in outcomes if o == "transient"
    )
    assert values[FAULTS_PERMANENT] == sum(
        1 for o in outcomes if o == "permanent"
    )


# the faults CLI passes both rates in from the command line, where
# "nan" and "inf" parse as floats too
@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_rate": 1.5},
        {"failure_rate": -0.1},
        {"transient_fraction": 2.0},
        {"transient_fraction": -0.01},
        {"failure_rate": float("nan")},
        {"transient_fraction": float("nan")},
        {"failure_rate": float("inf")},
        {"transient_fraction": float("-inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        FaultConfig(**kwargs)

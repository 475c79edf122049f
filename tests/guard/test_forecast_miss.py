"""Total-variation distance and the forecast-miss streak machine."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.forecasting.scenarios import Forecast, WorkloadScenario
from repro.guard import ForecastMissDetector, forecast_miss, total_variation


def _forecast(*scenarios):
    return Forecast(
        scenarios=tuple(scenarios), horizon_bins=4, bin_duration_ms=60_000.0
    )


def _scenario(name, probability, **frequencies):
    return WorkloadScenario(
        name=name, probability=probability, frequencies=frequencies
    )


# ----------------------------------------------------------------------
# total_variation


def test_identical_distributions_are_zero():
    assert total_variation({"a": 3.0, "b": 1.0}, {"a": 3.0, "b": 1.0}) == 0.0


def test_volume_differences_do_not_register():
    # same mix, 10x the executions: not drift
    p = {"a": 3.0, "b": 1.0}
    q = {"a": 30.0, "b": 10.0}
    assert total_variation(p, q) == pytest.approx(0.0)


def test_disjoint_supports_are_maximal():
    assert total_variation({"a": 5.0}, {"b": 5.0}) == pytest.approx(1.0)


def test_empty_cases():
    assert total_variation({}, {}) == 0.0
    assert total_variation({}, {"a": 1.0}) == 1.0
    assert total_variation({"a": 1.0}, {}) == 1.0


def test_symmetry_and_range():
    p = {"a": 8.0, "b": 2.0}
    q = {"a": 2.0, "b": 8.0, "c": 1.0}
    assert total_variation(p, q) == pytest.approx(total_variation(q, p))
    assert 0.0 <= total_variation(p, q) <= 1.0


def test_negative_frequencies_are_clamped():
    assert total_variation({"a": 1.0, "b": -5.0}, {"a": 1.0}) == 0.0


def test_last_float_digits_do_not_depend_on_the_hash_seed():
    """Fleet workers are separate interpreters with their own string
    hash salt: the distance must not be summed in set order."""
    script = (
        "from repro.guard import total_variation\n"
        "p = {f'family_{i}': 1.0 / (i + 3) for i in range(12)}\n"
        "q = {f'family_{i}': 1.0 / (i * i + 7) for i in range(4, 16)}\n"
        "print(total_variation(p, q).hex())\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    seen = set()
    for salt in ("1", "2", "3", "4"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        seen.add(out.stdout.strip())
    assert len(seen) == 1, seen


def test_dominance_swap_distance():
    # swapping the mass of two families moves |pa-pb| in TV
    p = {"a": 30.0, "b": 3.0, "c": 7.0}
    q = {"a": 3.0, "b": 30.0, "c": 7.0}
    assert total_variation(p, q) == pytest.approx(27.0 / 40.0)


# ----------------------------------------------------------------------
# ForecastMissDetector
#
# Against a forecast of family "a" alone, observing a:b at 3:1 is 0.25 TV
# away (outside the product's 0.20 envelope) and 17:3 is 0.15 away
# (inside it).

_OUTSIDE = {"a": 3.0, "b": 1.0}
_INSIDE = {"a": 17.0, "b": 3.0}


def test_the_envelope_is_the_products_threshold():
    assert forecast_miss.TV_THRESHOLD == 0.20
    forecast = _forecast(_scenario("expected", 1.0, a=10.0))
    outside = ForecastMissDetector().observe(forecast, _OUTSIDE)
    assert outside.distance == pytest.approx(0.25)
    assert outside.miss
    inside = ForecastMissDetector().observe(forecast, _INSIDE)
    assert inside.distance == pytest.approx(0.15)
    assert not inside.miss


def test_nearest_scenario_wins():
    forecast = _forecast(
        _scenario("expected", 0.7, a=10.0),
        _scenario("worst_case", 0.3, b=10.0),
    )
    detector = ForecastMissDetector()
    # matching the worst case is not a miss: any scenario within the
    # threshold keeps the observation inside the envelope
    verdict = detector.observe(forecast, {"a": 3.0, "b": 17.0})
    assert verdict.nearest_scenario == "worst_case"
    assert verdict.distance == pytest.approx(0.15)
    assert not verdict.miss
    assert detector.streak == 0


def test_streak_resets_on_hit():
    forecast = _forecast(_scenario("expected", 1.0, a=10.0))
    detector = ForecastMissDetector()
    assert detector.observe(forecast, _OUTSIDE).miss
    assert detector.streak == 1
    assert not detector.observe(forecast, _INSIDE).miss
    assert detector.streak == 0


def test_escalates_at_patience_and_resets():
    assert forecast_miss.MISS_PATIENCE == 2
    forecast = _forecast(_scenario("expected", 1.0, a=10.0))
    detector = ForecastMissDetector()
    first = detector.observe(forecast, _OUTSIDE)
    assert first.miss and not first.escalate
    second = detector.observe(forecast, _OUTSIDE)
    assert second.escalate
    assert second.streak == 2  # reports the streak that fired
    # escalation consumed the streak: a full patience window is needed
    # before the detector can fire again
    assert detector.streak == 0
    third = detector.observe(forecast, _OUTSIDE)
    assert third.miss and not third.escalate


def test_reset_forgets_the_streak():
    forecast = _forecast(_scenario("expected", 1.0, a=10.0))
    detector = ForecastMissDetector()
    detector.observe(forecast, _OUTSIDE)
    detector.reset()
    assert detector.streak == 0
    assert not detector.observe(forecast, _OUTSIDE).escalate

"""Tests for query families, mixes, traces, and drift injectors."""

import numpy as np
import pytest

from repro.workload.drift import apply_shift, apply_spike, swap_dominance
from repro.workload.generator import QueryFamily, WorkloadMix
from repro.workload.predicate import Predicate
from repro.workload.query import Query
from repro.workload.trace import FamilyRate, generate_trace


def _family(name="f", table="t"):
    def sampler(rng):
        return Query(table, (Predicate("a", "=", int(rng.integers(0, 10))),))

    return QueryFamily(name, sampler)


def test_family_samples_carry_tag_and_stable_template():
    family = _family("lookups")
    rng = np.random.default_rng(0)
    queries = [family.sample(rng) for _ in range(5)]
    assert all(q.tag == "lookups" for q in queries)
    assert {q.template().key for q in queries} == {family.template_key}


def test_mix_validation():
    with pytest.raises(ValueError):
        WorkloadMix([])
    with pytest.raises(ValueError):
        WorkloadMix([_family("a"), _family("a")])
    with pytest.raises(ValueError):
        WorkloadMix([_family("a")], weights={"ghost": 1.0})
    with pytest.raises(ValueError):
        WorkloadMix([_family("a")], weights={"a": 0.0})


def test_mix_sampling_respects_weights():
    mix = WorkloadMix(
        [_family("hot"), _family("cold")], weights={"hot": 9.0, "cold": 1.0}
    )
    queries = mix.sample_queries(500, seed=1)
    hot = sum(1 for q in queries if q.tag == "hot")
    assert 400 < hot < 500


def test_family_rate_seasonality_and_trend():
    rate = FamilyRate(base=10, amplitude=5, period_bins=8, trend_per_bin=0.5)
    values = [rate.rate_at(i) for i in range(16)]
    assert all(v >= 0 for v in values)
    assert values[10] > values[2]  # trend dominates eventually
    flat = FamilyRate(base=-5.0)
    assert flat.rate_at(0) == 0.0  # clipped at zero


def test_generate_trace_deterministic_and_noise_modes():
    families = {"f": _family("f")}
    rates = {"f": FamilyRate(base=10)}
    exact = generate_trace(families, rates, 10, 1000.0, seed=3, noise=False)
    assert all(b.counts["f"] == 10 for b in exact.bins)
    noisy1 = generate_trace(families, rates, 10, 1000.0, seed=3)
    noisy2 = generate_trace(families, rates, 10, 1000.0, seed=3)
    assert [b.counts for b in noisy1.bins] == [b.counts for b in noisy2.bins]


def test_generate_trace_rejects_unknown_rates():
    with pytest.raises(ValueError):
        generate_trace({"f": _family("f")}, {"ghost": FamilyRate(1)}, 2, 1.0, 0)


def test_trace_family_series():
    families = {"a": _family("a"), "b": _family("b", table="u")}
    rates = {"a": FamilyRate(5), "b": FamilyRate(2)}
    trace = generate_trace(families, rates, 20, 1000.0, seed=0, noise=False)
    series = trace.family_series("a")
    assert series.shape == (20,)
    with pytest.raises(KeyError):
        trace.family_series("ghost")


def test_apply_shift_only_after_cut():
    families = {"f": _family("f")}
    trace = generate_trace(families, {"f": FamilyRate(10)}, 10, 1000.0, 0, noise=False)
    shifted = apply_shift(trace, 5, {"f": 2.0})
    assert shifted.bins[4].counts["f"] == 10
    assert shifted.bins[5].counts["f"] == 20
    assert trace.bins[5].counts["f"] == 10  # original untouched


def test_apply_spike_window():
    families = {"f": _family("f")}
    trace = generate_trace(families, {"f": FamilyRate(10)}, 10, 1000.0, 0, noise=False)
    spiked = apply_spike(trace, "f", at_bin=3, duration_bins=2, magnitude=5)
    assert spiked.bins[3].counts["f"] == 50
    assert spiked.bins[4].counts["f"] == 50
    assert spiked.bins[5].counts["f"] == 10
    with pytest.raises(ValueError):
        apply_spike(trace, "ghost", 0, 1, 2)


def test_swap_dominance():
    families = {"a": _family("a"), "b": _family("b")}
    rates = {"a": FamilyRate(10), "b": FamilyRate(2)}
    trace = generate_trace(families, rates, 6, 1000.0, 0, noise=False)
    swapped = swap_dominance(trace, "a", "b", at_bin=3)
    assert swapped.bins[3].counts == {"a": 2, "b": 10}
    assert swapped.bins[2].counts == {"a": 10, "b": 2}

"""A3 (ablation) — §II-C/§III-A: query clustering trades accuracy for speed.

"Similar queries can be combined to reduce the number of queries that have
to be processed … and, in the end, reduce the time necessary for
predictions and tunings" (Section II-C); "decreasing the workload size, for
example, by clustering … can mitigate this problem in exchange for possibly
less accuracy" (Section III-A).

The same workload history (both suites merged → 15 templates) is forecast
with per-template models and with templates clustered to 6/3 units; the
table reports the number of series actually fitted (models the analyzer
asked its factory for, per analyze() call — the work clustering saves),
forecast error against the realized next bins, and analyze() wall time as
one host timing, shown for orientation and asserted on by nothing.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import save_table

from repro.forecasting import (
    AnalyzerConfig,
    AutoRegressive,
    Ensemble,
    LinearTrend,
    SeasonalNaive,
    WorkloadAnalyzer,
    smape,
)
from repro.workload import (
    build_retail_suite,
    build_telemetry_suite,
    generate_trace,
)

HISTORY_BINS = 72
HORIZON = 12
PERIOD = 24


def _merged_series():
    """Template histories from both suites, plus the true future."""
    retail = build_retail_suite(orders_rows=2_000, inventory_rows=500)
    telemetry = build_telemetry_suite(rows=2_000, n_sensors=50, n_ticks=500)
    series: dict[str, np.ndarray] = {}
    templates = {}
    for suite in (retail, telemetry):
        trace = generate_trace(
            suite.families,
            suite.rates,
            HISTORY_BINS + HORIZON,
            bin_duration_ms=60_000,
            seed=31,
        )
        for name, family in suite.families.items():
            key = family.template_key
            series[key] = trace.family_series(name)
            templates[key] = family.sample(np.random.default_rng(0)).template()
    history = {key: values[:HISTORY_BINS] for key, values in series.items()}
    future = {key: values[HISTORY_BINS:] for key, values in series.items()}
    return history, future, templates


def _model_factory():
    """An expensive analyzer method: holdout-weighted ensemble, the case
    where per-series fitting cost dominates and clustering pays."""
    return Ensemble(
        [
            lambda: SeasonalNaive(PERIOD),
            lambda: LinearTrend(window=48),
            lambda: AutoRegressive(order=PERIOD),
        ],
        holdout=HORIZON,
    )


def test_a3_clustering_tradeoff(benchmark):
    history, future, templates = _merged_series()
    actual_totals = {key: float(values.sum()) for key, values in future.items()}

    configurations = {
        "per-template (no clustering)": AnalyzerConfig(),
        "clustered to 6": AnalyzerConfig(cluster_above=1, max_clusters=6),
        "clustered to 3": AnalyzerConfig(cluster_above=1, max_clusters=3),
    }

    rows = []
    errors = {}
    fitted = {}
    for name, config in configurations.items():
        fits = 0

        def counting_factory():
            nonlocal fits
            fits += 1
            return _model_factory()

        analyzer = WorkloadAnalyzer(counting_factory, config)
        started = time.perf_counter()
        for _ in range(5):  # amortise timer noise
            forecast = analyzer.analyze(
                history, {}, HORIZON, 60_000.0, templates=templates
            )
        wall = (time.perf_counter() - started) / 5
        predicted = forecast.expected.frequencies
        keys = sorted(actual_totals)
        error = smape(
            np.array([actual_totals[k] for k in keys]),
            np.array([predicted.get(k, 0.0) for k in keys]),
        )
        errors[name] = error
        fitted[name] = fits // 5
        rows.append(
            [name, fitted[name], f"{wall * 1000:.2f}", round(error, 4)]
        )
    save_table(
        "a3_clustering",
        ["configuration", "series_fitted", "analyze_ms", "smape_vs_actual"],
        rows,
        f"A3: clustering trade-off over {len(history)} templates, "
        f"horizon {HORIZON} bins",
    )

    # clustering reduces the analysis work and costs (some) accuracy
    assert fitted["per-template (no clustering)"] == len(history)
    assert fitted["clustered to 6"] == 6
    assert fitted["clustered to 3"] == 3
    assert (
        errors["per-template (no clustering)"]
        <= errors["clustered to 3"] + 0.05
    )

    analyzer = WorkloadAnalyzer(
        _model_factory,
        AnalyzerConfig(cluster_above=1, max_clusters=6),
    )
    benchmark(
        lambda: analyzer.analyze(
            history, {}, HORIZON, 60_000.0, templates=templates
        )
    )

"""The metrics: names, units, directions, bounds, and how each is computed.

``BENCHMARK.json`` at the repository root lists the same names;
``selftest.py`` checks the two agree.

End-to-end metrics are measured with tracing off. A run makes several
passes over the same bins; its timing metrics are those of the pass made
of each bin's fastest time over the passes. Per-layer metrics are medians
over the traced passes of a ``--trace 1`` run.
"""

from __future__ import annotations

import statistics

#: (name, unit, better, bound). The bound is the share of the parent's
#: median by which the metric may worsen before it counts as a regression.
#: The bounds are wide because the box is: the shared 2-core sandbox the
#: baseline was taken on runs whole minutes a tenth to a fifth slower than
#: others, and no statistic over one run's passes removes that. Ten runs of
#: one workload at ten seeds spread (third minus first quartile, as a share
#: of the median) by 2 to 7%, idle or beside busy neighbours. One bound
#: holds for a metric on all four workloads, so the noisiest sets it.
END_TO_END = (
    # host queries per second through the closed loop (primary on serve_*)
    ("queries_per_s", "1/s", "higher", 0.25),
    # tenant-bins per host second (primary on tune_loop and fleet_serial)
    ("tenant_bins_per_s", "1/s", "higher", 0.25),
    # host ms of a timed bin: median and 90th percentile over a pass's bins
    ("bin_p50_ms", "ms", "lower", 0.25),
    ("bin_p90_ms", "ms", "lower", 0.25),
    # simulated mean query ms of the final 4 bins' schedule, replayed after
    # the first pass with literals from --seed against the configuration it
    # ended with, all tenants: what tuning bought, on queries the tuner
    # never saw
    ("sim_query_ms", "ms", "lower", 0.2),
    # imports (fastest of this process and two fresh interpreters), then
    # data build, wiring and warm-up bins (median over passes)
    ("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the benchmark process plus that of its largest worker
    ("peak_rss_mib", "MiB", "lower", 0.2),
)

# how a per-layer metric reads the trace: total or self milliseconds of a
# span name, its call count, or its mean inclusive microseconds per call
_TOTAL, _SELF, _COUNT, _MEAN_US = "total_ms", "self_ms", "n", "mean_us"

#: (name, unit, better, (kind, span name)) for metrics read off the trace.
_FROM_TRACE = (
    ("workload.sample_us", "us", "lower", (_MEAN_US, "workload.sample")),
    ("plan.plan_for_us", "us", "lower", (_MEAN_US, "plan.plan_for")),
    ("plan.plan_for_self_ms", "ms", "lower", (_SELF, "plan.plan_for")),
    ("plan.compile_us", "us", "lower", (_MEAN_US, "plan.compile")),
    ("plan.compile_ms", "ms", "lower", (_TOTAL, "plan.compile")),
    ("dbms.execute_self_ms", "ms", "lower", (_SELF, "dbms.execute")),
    ("dbms.executor_self_ms", "ms", "lower", (_SELF, "dbms.executor")),
    ("dbms.executor_n", "count", "lower", (_COUNT, "dbms.executor")),
    ("dbms.run_plan_ms", "ms", "lower", (_TOTAL, "dbms.run_plan")),
    ("dbms.run_plan_us", "us", "lower", (_MEAN_US, "dbms.run_plan")),
    ("dbms.plan_cache_record_ms", "ms", "lower", (_TOTAL, "dbms.plan_cache_record")),
    ("dbms.reconfigure_ms", "ms", "lower", (_TOTAL, "dbms.reconfigure")),
    ("dbms.reconfigure_n", "count", "lower", (_COUNT, "dbms.reconfigure")),
    ("dbms.index_build_ms", "ms", "lower", (_TOTAL, "dbms.index_build")),
    ("dbms.index_build_n", "count", "lower", (_COUNT, "dbms.index_build")),
    ("kpi.sample_ms", "ms", "lower", (_TOTAL, "kpi.sample")),
    ("forecasting.observe_ms", "ms", "lower", (_TOTAL, "forecasting.observe")),
    ("forecasting.forecast_ms", "ms", "lower", (_TOTAL, "forecasting.forecast")),
    ("guard.tick_ms", "ms", "lower", (_TOTAL, "guard.tick")),
    ("guard.tick_self_ms", "ms", "lower", (_SELF, "guard.tick")),
    ("cost.batch_query_costs_ms", "ms", "lower", (_TOTAL, "cost.batch_query_costs")),
    ("cost.batch_query_costs_self_ms", "ms", "lower", (_SELF, "cost.batch_query_costs")),
    ("cost.hypothetical_ms", "ms", "lower", (_TOTAL, "cost.hypothetical")),
    ("cost.hypothetical_self_ms", "ms", "lower", (_SELF, "cost.hypothetical")),
    ("cost.hypothetical_n", "count", "lower", (_COUNT, "cost.hypothetical")),
    ("tuning.propose_ms.index_selection", "ms", "lower", (_TOTAL, "tuning.propose.index_selection")),
    ("tuning.propose_ms.compression", "ms", "lower", (_TOTAL, "tuning.propose.compression")),
    ("tuning.propose_ms.data_placement", "ms", "lower", (_TOTAL, "tuning.propose.data_placement")),
    ("tuning.propose_ms.buffer_pool", "ms", "lower", (_TOTAL, "tuning.propose.buffer_pool")),
    ("tuning.execute_ms", "ms", "lower", (_TOTAL, "tuning.execute")),
    ("configuration.delta_apply_ms", "ms", "lower", (_TOTAL, "configuration.delta_apply")),
    ("configuration.delta_apply_n", "count", "lower", (_COUNT, "configuration.delta_apply")),
    ("configuration.capture_ms", "ms", "lower", (_TOTAL, "configuration.capture")),
    ("ordering.measure_ms", "ms", "lower", (_TOTAL, "ordering.measure")),
    ("ordering.measure_self_ms", "ms", "lower", (_SELF, "ordering.measure")),
    ("ordering.lp_ms", "ms", "lower", (_TOTAL, "ordering.lp")),
    ("ordering.run_ms", "ms", "lower", (_TOTAL, "ordering.run")),
    ("ordering.run_self_ms", "ms", "lower", (_SELF, "ordering.run")),
    ("core.execute_bin_ms", "ms", "lower", (_TOTAL, "core.execute_bin")),
    ("core.execute_bin_self_ms", "ms", "lower", (_SELF, "core.execute_bin")),
    ("core.finish_bin_ms", "ms", "lower", (_TOTAL, "core.finish_bin")),
    ("core.on_tick_ms", "ms", "lower", (_TOTAL, "core.on_tick")),
    ("core.on_tick_self_ms", "ms", "lower", (_SELF, "core.on_tick")),
    ("core.organizer_tick_ms", "ms", "lower", (_TOTAL, "core.organizer_tick")),
    ("core.organizer_tick_self_ms", "ms", "lower", (_SELF, "core.organizer_tick")),
    ("core.run_tuning_ms", "ms", "lower", (_TOTAL, "core.run_tuning")),
    ("core.run_tuning_self_ms", "ms", "lower", (_SELF, "core.run_tuning")),
    ("core.passes", "count", "lower", (_COUNT, "core.run_tuning")),
    ("core.replay_pass_ms", "ms", "lower", (_TOTAL, "core.replay_pass")),
    ("fleet.run_bin_ms", "ms", "lower", (_TOTAL, "fleet.run_bin")),
    ("fleet.run_bin_self_ms", "ms", "lower", (_SELF, "fleet.run_bin")),
    ("fleet.arbiter_ms", "ms", "lower", (_TOTAL, "fleet.arbiter")),
    ("fleet.report_ms", "ms", "lower", (_TOTAL, "fleet.report")),
    ("fleet.execute_wait_ms", "ms", "lower", (_TOTAL, "fleet.execute_wait")),
    ("fleet.tick_rpc_ms", "ms", "lower", (_TOTAL, "fleet.tick_rpc")),
    ("fleet.replay_rpc_ms", "ms", "lower", (_TOTAL, "fleet.replay_rpc")),
    ("fleet.snapshot_ms", "ms", "lower", (_TOTAL, "fleet.snapshot")),
    ("fleet.sync_ms", "ms", "lower", (_TOTAL, "fleet.sync")),
    ("fleet.checkpoint_ms", "ms", "lower", (_TOTAL, "fleet.checkpoint")),
)

#: (name, unit, better) for metrics computed in ``per_layer`` below.
_COMPUTED = (
    ("workload.parse_us", "us", "lower"),
    ("plan.compiles", "count", "lower"),
    ("plan.cache_hit_rate", "share", "higher"),
    ("plan.cache_evictions", "count", "lower"),
    ("dbms.execute_p50_us", "us", "lower"),
    ("dbms.execute_p99_us", "us", "lower"),
    ("dbms.buffer_hit_rate", "share", "higher"),
    ("cost.whatif_probes", "count", "lower"),
    ("cost.whatif_cache_hit_rate", "share", "higher"),
    ("tuning.proposals", "count", "lower"),
    ("guard.escalations", "count", "lower"),
    ("guard.rollbacks", "count", "lower"),
    ("core.tuning_pass_p50_ms", "ms", "lower"),
    ("core.tick_share", "share", "lower"),
    ("fleet.full_passes", "count", "lower"),
    ("fleet.replays", "count", "higher"),
    ("fleet.snapshot_bytes_per_bin", "B", "lower"),
    ("fleet.checkpoint_bytes", "B", "lower"),
    ("fleet.restore_ms", "ms", "lower"),
    ("fleet.process_wall_ms", "ms", "lower"),
    ("setup.import_ms", "ms", "lower"),
    ("setup.build_ms", "ms", "lower"),
    ("setup.warmup_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.self_sum_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
)

PER_LAYER = tuple(m[:3] for m in _FROM_TRACE) + _COMPUTED

#: What only a fleet on worker processes has. ``fleet_serial`` takes these
#: from the one pass of its process-mode twin, next to the twin's timed
#: wall, ``fleet.process_wall_ms``.
PROCESS_MODE = (
    "fleet.execute_wait_ms",
    "fleet.tick_rpc_ms",
    "fleet.replay_rpc_ms",
    "fleet.snapshot_ms",
    "fleet.sync_ms",
    "fleet.checkpoint_ms",
    "fleet.snapshot_bytes_per_bin",
    "fleet.checkpoint_bytes",
    "fleet.restore_ms",
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in 0..100; 0.0 of nothing."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values, value: float | None = None) -> dict:
    """A metric's value in a run (the median of its per-pass values
    unless given), with the quartiles and count of the per-pass values."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values) if value is None else value,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def end_to_end_of_pass(tenants: int, queries: int, wall_s: float, bin_s) -> dict:
    """The per-pass end-to-end values (the run-level ones are added later)."""
    return {
        "queries_per_s": queries / wall_s,
        "tenant_bins_per_s": tenants * len(bin_s) / wall_s,
        "bin_p50_ms": percentile(bin_s, 50) * 1000.0,
        "bin_p90_ms": percentile(bin_s, 90) * 1000.0,
    }


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_of_pass(tracer, outcome, wall_s: float, bins: int) -> dict:
    """Per-layer values of one traced pass (run-level ones are added later)."""
    by_name = tracer.by_name()
    empty = {"n": 0, "total_s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for name, _unit, _better, (kind, span) in _FROM_TRACE:
        row = by_name.get(span, empty)
        if kind == _TOTAL:
            values[name] = row["total_s"] * 1000.0
        elif kind == _SELF:
            values[name] = row["self_s"] * 1000.0
        elif kind == _COUNT:
            values[name] = float(row["n"])
        else:
            values[name] = row["total_s"] / row["n"] * 1e6 if row["n"] else 0.0

    counters = outcome.counters
    executes = tracer.samples["dbms.execute"]
    passes = tracer.spans_with_descendant("core.finish_bin", "core.run_tuning")
    ticks = by_name.get("core.finish_bin", empty)["total_s"]
    ticks += by_name.get("fleet.tick_rpc", empty)["total_s"]
    values.update(
        {
            "plan.compiles": counters.get("plan_compiles", 0.0),
            "plan.cache_hit_rate": outcome.plan["hit_rate"],
            "plan.cache_evictions": outcome.plan["evictions"],
            "dbms.execute_p50_us": percentile(executes, 50) * 1e6,
            "dbms.execute_p99_us": percentile(executes, 99) * 1e6,
            "dbms.buffer_hit_rate": _rate(
                counters.get("exec_buffer_hits", 0.0),
                counters.get("exec_buffer_misses", 0.0),
            ),
            "cost.whatif_probes": outcome.whatif["misses"],
            "cost.whatif_cache_hit_rate": outcome.whatif["hit_rate"],
            "tuning.proposals": float(
                sum(
                    row["n"]
                    for name, row in by_name.items()
                    if name.startswith("tuning.propose.")
                )
            ),
            "guard.escalations": counters.get("guard_escalations", 0.0),
            "guard.rollbacks": counters.get("guard_rollbacks", 0.0),
            "core.tuning_pass_p50_ms": (
                statistics.median(passes) * 1000.0 if passes else 0.0
            ),
            "core.tick_share": ticks / wall_s,
            "fleet.full_passes": outcome.fleet.get("full_passes", 0.0),
            "fleet.replays": outcome.fleet.get("replays", 0.0),
            "fleet.snapshot_bytes_per_bin": tracer.snapshot_bytes / bins,
            "fleet.checkpoint_bytes": outcome.fleet.get("checkpoint_bytes", 0.0),
            "trace.wall_ms": wall_s * 1000.0,
            "trace.self_sum_share": (
                sum(row["self_s"] for row in by_name.values()) / wall_s
            ),
        }
    )
    return values

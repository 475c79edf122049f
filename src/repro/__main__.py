"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``        — package, component, and feature inventory;
- ``simulate``    — run a closed-loop self-management simulation over the
                    retail (or telemetry) workload and print per-bin stats
                    plus the self-management log;
- ``fleet``       — run N skewed tenants under the fleet organizer and
                    print per-tenant stats plus the fleet rollup (priors
                    harvested, replays applied, arbitration record);
- ``order``       — measure the feature dependence matrix on a fresh suite
                    and print the LP-optimized tuning order;
- ``trace``       — run a short warm-up, force one tuning pass, and dump
                    its telemetry span tree plus the metric registry;
- ``faults``      — run the closed loop twice, fault-free and under a
                    seeded failure rate, and compare convergence plus the
                    fault/rollback/quarantine record;
- ``guard``       — run the closed loop with a mid-trace dominance swap
                    and print the guarded-commit record: probation
                    ledger, forecast-miss escalations, and GUARD events;
- ``components``  — list every registered exchangeable component.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import __version__


@contextlib.contextmanager
def _rejecting_bad_input(command: str):
    """A value the parser could not judge alone (an unknown family, a
    missing file, an unusable checkpoint directory) is an option error —
    one stderr line and exit status 2 — not a traceback."""
    from repro.fleet.checkpoint import CheckpointError

    try:
        yield
    except (ValueError, OSError, CheckpointError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_info(args: argparse.Namespace) -> int:
    del args
    from repro.core.component import default_registry

    registry = default_registry()
    print(f"repro {__version__} — reproduction of Kossmann & Schlosser, "
          "'A Framework for Self-Managing Database Systems' (ICDEW 2019)")
    print()
    for kind in registry.kinds():
        names = ", ".join(registry.names(kind))
        print(f"  {kind:15s} {names}")
    print()
    print("suites: retail (orders+inventory), telemetry (readings)")
    print("docs:   README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    from repro.core.component import default_registry

    registry = default_registry()
    kind = args.kind
    kinds = [kind] if kind else registry.kinds()
    for k in kinds:
        for name in registry.names(k):
            print(f"{k}\t{name}")
    return 0


def _build_suite(name: str, rows: int, seed: int):
    from repro.workload import build_retail_suite, build_telemetry_suite

    if name == "retail":
        return build_retail_suite(
            orders_rows=rows, inventory_rows=rows // 4, seed=seed
        )
    if name == "telemetry":
        return build_telemetry_suite(rows=rows, seed=seed)
    raise SystemExit(f"unknown suite {name!r} (retail | telemetry)")


def _build_features(args: argparse.Namespace):
    """The standard feature list, shaped by the common CLI flags."""
    from repro.tuning import standard_features

    features = standard_features(include_sort_order=args.sort_order)
    return features[: args.features] if args.features else features


def _workload(args: argparse.Namespace):
    """The suite and binned trace a closed-loop subcommand runs."""
    from repro.workload import generate_trace

    suite = _build_suite(args.suite, args.rows, args.seed)
    trace = generate_trace(
        suite.families, suite.rates, args.bins, bin_duration_ms=60_000,
        seed=args.seed,
    )
    return suite, trace


def _attach(args: argparse.Namespace, suite, trace, triggers=None,
            organizer=None, **config):
    """Attach a driver, shaped by the common constraint/feature flags and
    ``config`` (``DriverConfig`` fields), to the suite's database.

    Returns the driver's tenant context and a simulation over ``trace``.
    """
    from repro import (
        ClosedLoopSimulation,
        ConstraintSet,
        Driver,
        DriverConfig,
        OrganizerConfig,
        ResourceBudget,
    )
    from repro.configuration import INDEX_MEMORY
    from repro.util.units import MIB

    driver = Driver(
        _build_features(args),
        constraints=ConstraintSet(
            [ResourceBudget(INDEX_MEMORY, args.index_budget_mib * MIB)]
        ),
        triggers=triggers,
        config=DriverConfig(
            organizer=organizer
            or OrganizerConfig(horizon_bins=4, min_history_bins=4),
            **config,
        ),
    )
    suite.database.plugin_host.attach(driver)
    simulation = ClosedLoopSimulation(suite.database, trace, seed=args.seed)
    return driver.context, simulation


def _print_bins(records) -> None:
    print("bin  queries  mean_ms   tuned")
    for record in records:
        marker = "  *" if record.reconfigured else ""
        print(f"{record.index:3d}  {record.queries_executed:7d}  "
              f"{record.mean_query_ms:8.4f}{marker}")


def _print_events(ctx, kinds, title: str, tagged: bool = False) -> None:
    """The run's events of ``kinds`` under ``title``, when there are any;
    ``tagged`` prefixes each message with its kind."""
    shown = [e for e in ctx.events.events() if e.kind in kinds]
    if not shown:
        return
    print(f"\n{title}")
    for event in shown:
        tag = f"{event.kind.value:10s} " if tagged else ""
        print(f"  [{event.at_ms / 60_000:5.1f} min] {tag}{event.message}")


def _print_counters(ctx, title: str, names, width: int) -> None:
    """The run's registry values of ``names`` (0 when never written)."""
    print(f"\n{title}")
    snap = ctx.telemetry.registry.snapshot()
    for name in names:
        print(f"  {name:{width}s} {snap.get(name, 0.0):.0f}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import OrganizerConfig
    from repro.core import EventKind, ForecastDriftTrigger, PeriodicTrigger
    from repro.util.units import MIB

    suite, trace = _workload(args)
    ctx, simulation = _attach(
        args, suite, trace,
        triggers=[
            PeriodicTrigger(every_ms=args.tune_every_bins * 60_000),
            ForecastDriftTrigger(relative_threshold=0.25),
        ],
        organizer=OrganizerConfig(
            horizon_bins=4, min_history_bins=4, cooldown_ms=3 * 60_000
        ),
    )
    db = ctx.database

    print(f"simulating {args.bins} bins of the {args.suite} workload "
          f"({db.catalog.table_names()}, {args.rows} rows)")
    _print_bins(simulation.run())

    _print_events(
        ctx, (EventKind.ORDER_PLANNED, EventKind.TUNING_FINISHED),
        "self-management log:",
    )
    print(f"\nindex memory: {db.index_bytes() / MIB:.2f} MiB; "
          f"reconfigurations: {db.counters.reconfigurations}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetConfig, FleetDriver, build_fleet
    from repro.util.tables import render_table

    if args.resume and not args.checkpoint_dir:
        print("--resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every needs --checkpoint-dir", file=sys.stderr)
        return 2
    config = FleetConfig(
        share_priors=not args.no_priors,
        arbitrate=not args.no_arbitrate,
        max_concurrent_reconfigurations=args.max_concurrent,
    )
    with _rejecting_bad_input(args.command):
        if args.resume:
            fleet = FleetDriver.resume(
                args.checkpoint_dir,
                parallel=args.parallel,
                workers=args.workers,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
            )
            print(f"fleet: resumed from {args.checkpoint_dir} at bin "
                  f"{fleet.next_bin} ({len(fleet.tenants)} tenants, "
                  f"{fleet.n_bins} bins total)")
        else:
            fleet = build_fleet(
                args.tenants,
                skew=args.skew,
                seed=args.seed,
                bins=args.bins,
                rows=args.rows,
                suite=args.suite,
                config=config,
                tune_every_bins=args.tune_every_bins,
                index_budget_mib=args.index_budget_mib,
                parallel=args.parallel,
                workers=args.workers,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
            )
            mode = (
                "" if args.parallel == "serial" else f", {args.parallel} mode"
            )
            print(f"fleet: {args.tenants} tenants over the {args.suite} "
                  f"workload, skew {args.skew}, {args.bins} bins, "
                  f"seed {args.seed}{mode}")
        report = fleet.run()

    print()
    print(render_table(
        ["tenant", "profile", "scale", "queries", "mean_ms", "final_ms",
         "passes", "replays", "reconfigs"],
        [[s.tenant, s.profile, round(s.volume_scale, 3), s.queries,
          round(s.mean_query_ms, 4), round(s.final_mean_query_ms, 4),
          s.full_passes, s.replays, s.reconfigurations]
         for s in report.summaries],
    ))

    arb = report.arbitration
    print(f"\nfleet rollup: {report.total_queries} queries, "
          f"{arb['full_passes']} full tuning passes, "
          f"{arb['replays_applied']} prior replays applied "
          f"({arb['replays_rejected']} rejected), "
          f"{arb['priors']} priors harvested")
    print(f"what-if cache (all tenants): {report.whatif.hits} hits, "
          f"{report.whatif.misses} misses "
          f"({report.whatif.hit_rate:.0%} hit rate)")
    print(f"plan cache (all tenants): {report.plan.hits} hits, "
          f"{report.plan.misses} misses "
          f"({report.plan.hit_rate:.0%} hit rate)")

    if args.checkpoint_dir:
        fc = report.fleet_counters
        print(f"checkpoints: {fc.get('checkpoint_writes', 0):.0f} written "
              f"({fc.get('checkpoint_bytes', 0):.0f} bytes) to "
              f"{args.checkpoint_dir}, "
              f"{fc.get('checkpoint_restores', 0):.0f} restored, "
              f"{fc.get('worker_restarts', 0):.0f} worker restarts, "
              f"{fc.get('fleet_tenant_quarantines', 0):.0f} quarantines")

    if report.replay_outcomes:
        print("\nprior replays:")
        for o in report.replay_outcomes:
            print(f"  prior #{o.prior_id} {o.source} -> {o.tenant}: "
                  f"{o.reason}")
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import ConstraintSet, RecursiveTuningPlanner, ResourceBudget, Tuner
    from repro.configuration import INDEX_MEMORY
    from repro.forecasting.scenarios import point_forecast
    from repro.util.tables import render_table
    from repro.util.units import MIB

    suite = _build_suite(args.suite, args.rows, args.seed)
    db = suite.database
    rng = np.random.default_rng(args.seed)
    samples = {}
    frequencies = {}
    for family in suite.families.values():
        query = family.sample(rng)
        samples[query.template().key] = query
        frequencies[query.template().key] = 10.0
    forecast = point_forecast(frequencies, samples)

    tuners = [Tuner(feature, db) for feature in _build_features(args)]
    constraints = ConstraintSet(
        [ResourceBudget(INDEX_MEMORY, args.index_budget_mib * MIB)]
    )
    planner = RecursiveTuningPlanner(db, tuners, constraints)
    print(f"measuring dependence matrix over {len(tuners)} features ...")
    matrix, solution = planner.plan_order(forecast)
    print(f"\nW_0 = {matrix.w_empty:.3f} ms\n")
    print(render_table(
        ["feature", "W_A_ms", "impact", "tuning_cost_ms"],
        [[f, round(matrix.w_single[f], 3), round(matrix.impact(f), 3),
          round(matrix.tuning_cost_ms[f], 2)] for f in matrix.features],
    ))
    print()
    print(render_table(
        ["A", "B", "d_AB", "tune first"],
        [[a, b, round(matrix.d(a, b), 4),
          a if matrix.d(a, b) > 1 else (b if matrix.d(a, b) < 1 else "-")]
         for a in matrix.features for b in matrix.features if a < b],
    ))
    print(f"\nLP order ({solution.n_variables} vars, "
          f"{solution.n_constraints} constraints, "
          f"{solution.solve_seconds * 1e3:.1f} ms): "
          f"{' -> '.join(solution.order)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import TelemetryConfig, render_span_tree

    suite, trace = _workload(args)
    ctx, simulation = _attach(
        args, suite, trace,
        telemetry=TelemetryConfig(
            query_sample_every=args.sample_every,
            jsonl_path=args.jsonl,
        ),
    )

    print(f"warming up: {args.bins} bins of the {args.suite} workload ...")
    for _ in simulation.run():
        pass
    report = ctx.organizer.run_tuning()
    if report is None:
        print("tuning pass skipped (time budget admits no feature)")
        return 1
    span = ctx.telemetry.tracer.last_root("tuning_pass")
    if span is None:
        print("no tuning_pass span recorded — is telemetry disabled?")
        return 1

    print(f"\nspan tree of the last tuning pass "
          f"(order: {' -> '.join(report.order)}):\n")
    print(render_span_tree(span))

    print("\nmetric registry:")
    registry = ctx.telemetry.registry
    counters = registry.snapshot_counters()
    gauges = registry.snapshot_gauges()
    width = max(map(len, [*counters, *gauges] or [""])) + 2
    for name in sorted(counters):
        print(f"  {name:{width}s} {counters[name]:.0f}")
    for name in sorted(gauges):
        print(f"  {name:{width}s} {gauges[name]:.0f}  (gauge)")

    sampled = int(counters.get("exec_sampled_spans", 0.0))
    total = int(counters.get("exec_queries", 0.0))
    rate = (
        f"1 in {args.sample_every}" if args.sample_every > 0
        else "sampling off"
    )
    print(f"\nsampled query spans: {sampled} of {total} queries ({rate})")

    stats = ctx.plan_stats
    print(
        f"compiled-plan cache: {stats.hits} hits, {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate), {stats.size} plans cached"
    )
    if args.jsonl:
        ctx.telemetry.close()
        print(f"telemetry records exported to {args.jsonl}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro import FaultConfig, OrganizerConfig
    from repro.core import EventKind, PeriodicTrigger
    from repro.kpi.metrics import FAULT_KPIS

    def run(faults):
        suite, trace = _workload(args)
        ctx, simulation = _attach(
            args, suite, trace,
            triggers=[
                PeriodicTrigger(every_ms=args.tune_every_bins * 60_000)
            ],
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3),
            faults=faults,
        )
        return simulation.run(), ctx

    faults = FaultConfig(
        seed=args.fault_seed,
        failure_rate=args.failure_rate,
        transient_fraction=args.transient_fraction,
    )
    print(f"fault-free run: {args.bins} bins of the {args.suite} workload ...")
    clean_records, _ = run(None)
    print(f"faulty run: failure rate {args.failure_rate:.0%}, "
          f"transient fraction {args.transient_fraction:.0%}, "
          f"fault seed {args.fault_seed} ...")
    faulty_records, ctx = run(faults)

    print("\nbin  queries  clean_ms  faulty_ms  tuned")
    for clean, faulty in zip(clean_records, faulty_records):
        marker = "  *" if faulty.reconfigured else ""
        print(f"{faulty.index:3d}  {faulty.queries_executed:7d}  "
              f"{clean.mean_query_ms:8.4f}  {faulty.mean_query_ms:9.4f}"
              f"{marker}")

    tail = max(1, len(clean_records) // 4)
    clean_cost = sum(
        r.mean_query_ms for r in clean_records[-tail:]
    ) / tail
    faulty_cost = sum(
        r.mean_query_ms for r in faulty_records[-tail:]
    ) / tail
    gap = faulty_cost / clean_cost - 1.0 if clean_cost > 0 else 0.0

    _print_counters(ctx, "fault record:", FAULT_KPIS, 22)
    _print_events(
        ctx,
        (EventKind.FAULT, EventKind.ROLLBACK, EventKind.QUARANTINE),
        "fault / rollback / quarantine events:",
        tagged=True,
    )

    print(f"\nfinal cost (mean over the last {tail} bins): "
          f"{clean_cost:.4f} ms fault-free vs {faulty_cost:.4f} ms "
          f"faulty ({100 * gap:+.2f}%)")
    return 0


def _print_commit_ledger(store) -> None:
    """Every commit that went on probation, oldest first (the one still
    on probation is therefore last), with the KPI mean it was judged by."""
    commits = [r for r in store.history() if r.commit_id is not None]
    if not commits:
        return
    print("\ncommit ledger:")
    for record in commits:
        state = (
            record.resolution.value if record.resolution else "on_probation"
        )
        observed = (
            "-" if record.observed_ms is None else f"{record.observed_ms:.3f}"
        )
        print(f"  commit #{record.commit_id} at "
              f"{record.applied_at_ms / 60_000:5.1f} min: {state} "
              f"({len(record.inverse_actions)} inverse actions retained, "
              f"baseline {record.baseline_ms:.3f} -> observed {observed} ms)")


def _cmd_guard(args: argparse.Namespace) -> int:
    from repro.core import EventKind, PeriodicTrigger
    from repro.kpi.metrics import GUARD_KPIS
    from repro.workload.drift import swap_dominance

    suite, trace = _workload(args)
    swap = None
    if args.swap_at > 0:
        # swap family dominance mid-trace (default: highest with lowest rate)
        by_rate = sorted(suite.rates, key=lambda n: suite.rates[n].base)
        swap = (args.swap_a or by_rate[-1], args.swap_b or by_rate[0])
        with _rejecting_bad_input(args.command):
            trace = swap_dominance(trace, *swap, args.swap_at)
    ctx, simulation = _attach(
        args, suite, trace,
        triggers=[PeriodicTrigger(every_ms=args.tune_every_bins * 60_000)],
    )

    print(f"simulating {args.bins} bins of the {args.suite} workload "
          "under the commit guard")
    if swap is not None:
        print(f"dominance swap at bin {args.swap_at}: "
              f"{swap[0]} <-> {swap[1]}")
    _print_bins(simulation.run())

    _print_counters(ctx, "guard record:", GUARD_KPIS, 22)
    _print_commit_ledger(ctx.store)
    _print_events(
        ctx,
        (EventKind.GUARD, EventKind.ROLLBACK, EventKind.QUARANTINE),
        "guard / rollback / quarantine events:",
        tagged=True,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Self-managing database framework (ICDEW'19 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="package inventory").set_defaults(
        run=_cmd_info
    )

    components = commands.add_parser(
        "components", help="list registered components"
    )
    components.add_argument("kind", nargs="?", default=None)
    components.set_defaults(run=_cmd_components)

    #: every option more than one subcommand takes, declared once; a
    #: subcommand names the ones it takes — in --help order — with its
    #: own default (or a dict of add_argument overrides)
    shared_options = {
        "suite": dict(choices=("retail", "telemetry")),
        "rows": dict(type=int),
        "seed": dict(type=int),
        "features": dict(type=int,
                         help="use only the first N standard features"),
        "sort_order": dict(action="store_true",
                           help="include the sort-order feature"),
        "index_budget_mib": dict(type=float),
        "bins": dict(type=int),
        "tune_every_bins": dict(type=int),
    }

    def shared(sub: argparse.ArgumentParser, **defaults) -> None:
        for dest, default in defaults.items():
            if not isinstance(default, dict):
                default = {"default": default}
            sub.add_argument(
                "--" + dest.replace("_", "-"),
                **{**shared_options[dest], **default},
            )

    def common(sub: argparse.ArgumentParser, **more) -> None:
        shared(sub, suite="retail", rows=40_000, seed=7, features=0,
               sort_order=False, index_budget_mib=4.0, **more)

    simulate = commands.add_parser(
        "simulate", help="run a closed-loop self-management simulation"
    )
    common(simulate, bins=24, tune_every_bins=8)
    simulate.set_defaults(run=_cmd_simulate)

    fleet = commands.add_parser(
        "fleet", help="run a multi-tenant fleet with shared tuning priors"
    )
    fleet.add_argument("--tenants", type=int, default=4)
    fleet.add_argument("--skew", type=float, default=0.8,
                       help="Zipf volume skew (tenant i scaled (i+1)^-skew)")
    shared(fleet, suite="retail", rows=20_000, seed=7, bins=24,
           tune_every_bins=6, index_budget_mib=64.0)
    fleet.add_argument("--max-concurrent", type=int, default=3,
                       help="fleet-wide cap on concurrent reconfigurations")
    fleet.add_argument("--no-priors", action="store_true",
                       help="disable prior sharing (independent tuning)")
    fleet.add_argument("--no-arbitrate", action="store_true",
                       help="disable admission arbitration")
    fleet.add_argument("--parallel", default="serial",
                       choices=["serial", "process"],
                       help="where tenant stacks are hosted: this process "
                            "or fork workers (results are bit-identical)")
    fleet.add_argument("--checkpoint-dir", default=None,
                       help="directory for durable fleet checkpoints")
    fleet.add_argument("--checkpoint-every", type=int, default=0,
                       help="write a checkpoint every N bins (0 = off; "
                            "needs --checkpoint-dir)")
    fleet.add_argument("--resume", action="store_true",
                       help="resume from the newest checkpoint in "
                            "--checkpoint-dir instead of starting fresh")
    fleet.add_argument("--workers", type=int, default=None,
                       help="process-mode worker count (default: cpu count, "
                            "capped at the tenant count)")
    fleet.set_defaults(run=_cmd_fleet)

    order = commands.add_parser(
        "order", help="measure dependencies and print the LP tuning order"
    )
    common(order)
    order.set_defaults(run=_cmd_order)

    trace = commands.add_parser(
        "trace", help="dump the telemetry span tree of a forced tuning pass"
    )
    common(trace,
           bins=dict(default=8, help="warm-up bins before the forced pass"))
    trace.add_argument("--sample-every", type=int, default=64,
                       help="sample one query span per N queries (0 = off)")
    trace.add_argument("--jsonl", default=None,
                       help="also export every telemetry record to this file")
    trace.set_defaults(run=_cmd_trace)

    faults = commands.add_parser(
        "faults", help="compare fault-free and faulty closed-loop runs"
    )
    common(faults, bins=24, tune_every_bins=3)
    faults.add_argument("--failure-rate", type=float, default=0.10,
                        help="per-action injected failure probability")
    faults.add_argument("--transient-fraction", type=float, default=0.75,
                        help="fraction of failures that are retryable")
    faults.add_argument("--fault-seed", type=int, default=2,
                        help="seed of the fault injector's random stream")
    faults.set_defaults(run=_cmd_faults)

    guard = commands.add_parser(
        "guard", help="show the guarded-commit record of a drifting run"
    )
    common(guard, bins=24, tune_every_bins=8)
    guard.add_argument("--swap-at", type=int, default=12,
                       help="swap family dominance at this bin (0 = off)")
    guard.add_argument("--swap-a", default=None,
                       help="first swapped family (default: highest rate)")
    guard.add_argument("--swap-b", default=None,
                       help="second swapped family (default: lowest rate)")
    guard.set_defaults(run=_cmd_guard)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())

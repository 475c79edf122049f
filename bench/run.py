"""The benchmark's one command.

One workload, as the driver in ``BENCHMARK.json`` runs it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's inputs from the seed, repeats *set-up, warm-up,
timed pass* until the timed passes add up to ``--seconds`` (three times
at least), checks the outputs, prints every metric by name with unit and
direction, and ends with one JSON line. The timing metrics are those of
the pass made of each bin's fastest time over the passes. ``--trace 0`` reports the
end-to-end metrics with no wrapper installed; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. Details of
the run go to ``bench/out/<workload>.trace<0|1>.json`` and the trace to
``bench/out/trace_<workload>.jsonl``.

Without ``--trace`` it is the ledger (see ``ledger.py``): every workload
in a fresh child process, collected into ``bench/out/results.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# the package is run from source; BENCHMARK.json's command may name
# nothing outside bench/, so the path is added here
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import metrics
import workloads
from repro.workload.sql import parse_sql
from tracing import Tracer

_IMPORT_S = time.perf_counter() - _STARTED

#: What the lines above do, for a fresh interpreter to time.
_IMPORT_PROBE = (
    "import sys, time; started = time.perf_counter(); "
    "sys.path[:0] = sys.argv[1:]; "
    "import metrics, workloads, tracing; "
    "from repro.workload.sql import parse_sql; "
    "print(time.perf_counter() - started)"
)


def import_seconds(probes: int) -> float:
    """Fastest import of this process and ``probes`` fresh interpreters.

    Every import does the same work, so a slower one was held up: by a
    cold file cache at the start of the run, or by the host's other
    guests. The probes run at the end of the run, half a minute after
    this process's own import, so one slow spell rarely covers all three.
    """
    samples = [_IMPORT_S]
    for _ in range(probes):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *sys.path[:2]],
            capture_output=True, text=True, check=True,
        )
        samples.append(float(probe.stdout))
    return min(samples)


def _peak_rss_mib() -> float:
    """High-water RSS of this process plus its largest waited-for child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def run_pass(
    cls, seed: int, sizes, tracer: Tracer, traced: bool, replay: bool
) -> dict:
    """Set up, warm up, run the timed bins, and collect the outcome.

    ``replay`` adds ``sim_query_ms``. It is the same after every pass of
    a run, so one pass takes it.
    """
    gc.collect()
    started = time.perf_counter()
    workload = cls(seed, sizes, OUT_DIR)
    built = time.perf_counter()
    try:
        workload.warm_up()
        warmed = time.perf_counter()
        gc.collect()
        bin_s = []
        tracer.reset()
        tracer.on = traced
        try:
            pass_started = time.perf_counter()
            with tracer.span("bench.pass"):
                for index in range(
                    sizes.warmup_bins, sizes.warmup_bins + sizes.bins
                ):
                    tracer.bin = index
                    bin_started = time.perf_counter()
                    with tracer.span("bench.bin"):
                        workload.run_bin(index)
                    bin_s.append(time.perf_counter() - bin_started)
                finish_started = time.perf_counter()
                with tracer.span("bench.finish"):
                    workload.finish()
            wall_s = time.perf_counter() - pass_started
            finish_s = time.perf_counter() - finish_started
        finally:
            tracer.on = False
        outcome = workload.outcome()
        result = {
            "traced": traced,
            "wall_s": wall_s,
            "bin_s": bin_s,
            "finish_s": finish_s,
            "build_s": built - started,
            "warmup_s": warmed - built,
            "queries": outcome.queries,
            "tenants": workload.tenants,
            "final_window_ms": outcome.final_window_ms,
            "sim_query_ms": workload.replay_ms() if replay else None,
            "digest": outcome.digest,
            "checks": outcome.checks,
            "checks_failed": outcome.checks_failed,
            "end_to_end": metrics.end_to_end_of_pass(
                workload.tenants, outcome.queries, wall_s, bin_s
            ),
        }
        if traced:
            result["per_layer"] = metrics.per_layer_of_pass(
                tracer, outcome, wall_s, sizes.bins
            )
            if cls is workloads.FleetProcess:
                restore_started = time.perf_counter()
                restored = workload.restore_latest()
                result["per_layer"]["fleet.restore_ms"] = (
                    time.perf_counter() - restore_started
                ) * 1000.0
                result["checks"] += 1
                result["checks_failed"] += not restored
        return result
    finally:
        workload.close()


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """One run: repeated passes, cross-pass checks, the metrics."""
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    passes: list[dict] = []
    twin: dict | None = None
    attempted = failed = 0
    peak_rss_mib = 0.0
    if trace:
        tracer.install()
    try:
        measured = 0.0
        # --trace 1 alternates untraced and traced passes, so the two
        # walls that make trace.overhead_share see the same machine state
        minimum = 4 if trace else 3
        while len(passes) < minimum or measured < seconds:
            traced = trace and len(passes) % 2 == 1
            attempted += sizes.bins
            try:
                result = run_pass(
                    workloads.WORKLOADS[name], seed, sizes, tracer, traced,
                    replay=not passes,
                )
            except Exception:
                # a bin that raises leaves no state worth continuing from
                traceback.print_exc()
                failed += sizes.bins
                break
            passes.append(result)
            measured += result["wall_s"]
            attempted += result["queries"] + result["checks"]
            failed += result["checks_failed"]
            if traced:
                tracer.write_jsonl(
                    OUT_DIR / f"trace_{name}.jsonl",
                    {
                        "workload": name,
                        "seed": seed,
                        "wall_ms": result["wall_s"] * 1000.0,
                    },
                )

        # before anything but the workload's own passes has used memory
        peak_rss_mib = _peak_rss_mib()

        if name == "fleet_serial" and passes:
            # the same fleet on worker processes, once: it must decide the
            # same and price the replay the same, and what process mode
            # adds is read off this pass
            attempted += sizes.bins + 1
            try:
                twin = run_pass(
                    workloads.FleetProcess, seed, sizes, tracer, trace,
                    replay=True,
                )
            except Exception:
                traceback.print_exc()
                failed += sizes.bins + 1
            else:
                attempted += twin["checks"]
                failed += twin["checks_failed"]
                failed += (
                    twin["digest"] != passes[0]["digest"]
                    or twin["sim_query_ms"] != passes[0]["sim_query_ms"]
                )
                if trace:
                    tracer.write_jsonl(
                        OUT_DIR / "trace_fleet_process.jsonl",
                        {
                            "workload": "fleet_process",
                            "seed": seed,
                            "wall_ms": twin["wall_s"] * 1000.0,
                        },
                    )
    finally:
        tracer.uninstall()

    # the same seed must decide the same things every time
    for later in passes[1:]:
        attempted += 1
        failed += (
            later["digest"] != passes[0]["digest"]
            or later["final_window_ms"] != passes[0]["final_window_ms"]
            or later["queries"] != passes[0]["queries"]
        )

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    import_s = import_seconds(0 if sizes is workloads.SMOKE else 2)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "queries": passes[0]["queries"] if passes else 0,
        "digest": passes[0]["digest"] if passes else "",
        "import_s": import_s,
        # fleet_serial only: the timed wall of its process-mode twin
        "process_wall_s": twin["wall_s"] if twin else 0.0,
        "end_to_end": {},
        "per_layer": {},
    }
    if untraced:
        # every pass times the same bins doing the same work, and other
        # guests of the shared host only ever add time: the run's value
        # comes from the pass made of each bin's fastest time, which is
        # what interference in some of the passes moves least
        typical_bin_s = [
            min(p["bin_s"][k] for p in untraced) for k in range(sizes.bins)
        ]
        typical = metrics.end_to_end_of_pass(
            untraced[0]["tenants"],
            untraced[0]["queries"],
            sum(typical_bin_s) + min(p["finish_s"] for p in untraced),
            typical_bin_s,
        )
        detail["end_to_end"] = {
            key: metrics.summary(
                (p["end_to_end"][key] for p in untraced), value
            )
            for key, value in typical.items()
        }
        # per pass: host ms of each timed bin, then of finish
        detail["pass_bin_ms"] = [
            [round(s * 1000.0, 3) for s in (*p["bin_s"], p["finish_s"])]
            for p in untraced
        ]
        detail["end_to_end"]["sim_query_ms"] = metrics.summary(
            [passes[0]["sim_query_ms"]]
        )
        # imports happen once per process; every pass sets up afresh
        detail["end_to_end"]["setup_s"] = metrics.summary(
            import_s + p["build_s"] + p["warmup_s"] for p in passes
        )
        detail["end_to_end"]["peak_rss_mib"] = metrics.summary([peak_rss_mib])
    if traced_passes:
        layer = {
            key: statistics.median(p["per_layer"][key] for p in traced_passes)
            for key in traced_passes[0]["per_layer"]
        }
        layer["fleet.restore_ms"] = 0.0
        layer["fleet.process_wall_ms"] = 0.0
        if twin:
            layer.update(
                {key: twin["per_layer"][key] for key in metrics.PROCESS_MODE}
            )
            layer["fleet.process_wall_ms"] = twin["wall_s"] * 1000.0
        texts = workloads.sql_texts(seed, sizes)
        parse_started = time.perf_counter()
        for text in texts:
            parse_sql(text)
        layer["workload.parse_us"] = (
            (time.perf_counter() - parse_started) / len(texts) * 1e6
        )
        layer["setup.import_ms"] = import_s * 1000.0
        layer["setup.build_ms"] = (
            statistics.median(p["build_s"] for p in passes) * 1000.0
        )
        layer["setup.warmup_ms"] = (
            statistics.median(p["warmup_s"] for p in passes) * 1000.0
        )
        # fastest against fastest, as for the end-to-end times
        layer["trace.overhead_share"] = (
            min(p["wall_s"] for p in traced_passes)
            / min(p["wall_s"] for p in untraced)
            - 1.0
        )
        detail["per_layer"] = layer
    return detail


def result_line(detail: dict) -> dict:
    """The contract's last line: correct, attempted, failed, metrics."""
    if detail["trace"]:
        table = metrics.PER_LAYER
        values = detail["per_layer"]
    else:
        table = metrics.END_TO_END
        values = {k: v["value"] for k, v in detail["end_to_end"].items()}
    return {
        "correct": detail["failed"] == 0 and bool(values),
        "attempted": max(1, detail["attempted"]),
        "failed": detail["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in table
            if name in values
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--traced", action="store_true",
        help="ledger only: also make the --trace 1 run of each workload",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes (selftest.py); the numbers mean nothing",
    )
    args = parser.parse_args(argv)
    if args.trace is None:
        import ledger

        return ledger.main(args)
    if args.workload is None:
        parser.error("--trace needs --workload")

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes
    )
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    line = result_line(detail)
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(
        f"{args.workload} seed={args.seed} passes={detail['passes']} "
        f"queries/pass={detail['queries']} digest={detail['digest'][:12]}"
    )
    for name, unit, better, *_ in table:
        if name in line["metrics"]:
            print(
                f"  {name:38s} {line['metrics'][name]['value']:14.6g} "
                f"{unit:6s} ({better} is better)"
            )
    if len(line["metrics"]) != len(table):
        # a pass raised before any metric existed: no result line
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

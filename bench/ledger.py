"""The ledger: every workload in a fresh child process, one results file.

``python3 bench/run.py [--seed 11] [--seconds 20] [--workload NAME]
[--traced]`` lands here. Each workload is one ``run.py --trace 0`` child
(and one ``--trace 1`` child with ``--traced``); their detail files are
collected into ``bench/out/results.json`` together with the machine the
numbers were taken on. ``compare.py`` reads two such files;
``baseline.json`` is one, committed.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import metrics
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=BENCH_DIR,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> dict:
    """The machine and versions, and whether it was busy at the start."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "loadavg_1min": load,
        # something else was running: the timings are not to be trusted
        "noisy": load > nproc / 2,
    }


def main(args) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    env = environment()
    if env["noisy"]:
        print(
            f"NOISY: 1-min load average {env['loadavg_1min']:.2f} exceeds "
            f"nproc/2 = {env['nproc'] / 2:.1f}; timings are unreliable"
        )
    results = {
        "environment": env,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = False
    for name in names:
        entry: dict = {}
        for trace in (0, 1) if args.traced else (0,):
            command = [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            detail_path = OUT_DIR / f"{name}.trace{trace}.json"
            detail_path.unlink(missing_ok=True)
            code = subprocess.run(command, check=False).returncode
            if code != 0 or not detail_path.exists():
                print(f"{name} --trace {trace} exited with {code}")
                failed = True
                continue
            detail = json.loads(detail_path.read_text())
            failed = failed or detail["failed"] > 0
            if trace:
                entry["per_layer"] = detail["per_layer"]
                entry["traced_attempted"] = detail["attempted"]
                entry["traced_failed"] = detail["failed"]
            else:
                entry.update(
                    {
                        key: detail[key]
                        for key in (
                            "passes", "attempted", "failed", "queries",
                            "digest", "process_wall_s", "end_to_end",
                        )
                    }
                )
        results["workloads"][name] = entry

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {path}" + ("  (NOISY)" if env["noisy"] else ""))
    for name, entry in results["workloads"].items():
        for metric, *_ in metrics.END_TO_END:
            row = entry.get("end_to_end", {}).get(metric)
            if row:
                print(
                    f"  {name:16s} {metric:18s} {row['value']:12.6g} "
                    f"[{row['q1']:.6g}, {row['q3']:.6g}] n={row['n']}"
                )
    fleet = results["workloads"].get("fleet_serial", {})
    if fleet.get("process_wall_s") and "end_to_end" in fleet:
        sizes = workloads.SMOKE if args.smoke else workloads.FULL
        twin = sizes.fleet_tenants * sizes.bins / fleet["process_wall_s"]
        ratio = twin / fleet["end_to_end"]["tenant_bins_per_s"]["value"]
        print(
            f"  process-mode twin / fleet_serial, tenant_bins_per_s = "
            f"{ratio:.2f}x on {env['nproc']} CPUs"
        )
    return 1 if failed else 0

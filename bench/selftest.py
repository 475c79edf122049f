"""Self-test of the benchmark itself: ``python3 bench/selftest.py --smoke``.

Runs the ledger at smoke sizes (a few bins, 2,000 rows, under 20 s) and
checks what the driver and later readers rely on:

- ``BENCHMARK.json`` names exactly the workloads and metrics
  ``workloads.py`` and ``metrics.py`` define, with the same units,
  directions and bounds, inside the contract's limits;
- every workload's result carries every metric, as a finite number;
- installing and removing the tracing wrappers leaves every target the
  object it was;
- ``bench/out/`` is ignored by the repository's ``.gitignore``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics
import tracing
import workloads

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_manifest() -> list[str]:
    """``BENCHMARK.json`` against the code and the contract's limits."""
    problems = []
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in manifest["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    declared = [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    ]
    if declared != list(metrics.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from metrics.py")
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if declared != list(metrics.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from metrics.py")
    if not 2 <= len(manifest["workloads"]) <= 5:
        problems.append("workload count outside 2..5")
    if not 1 <= len(manifest["end_to_end"]) <= 16:
        problems.append("end_to_end count outside 1..16")
    if not 1 <= len(manifest["per_layer"]) <= 128:
        problems.append("per_layer count outside 1..128")
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in manifest[key]
    ]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    problems += [f"bad name {n!r}" for n in names if not _NAME.fullmatch(n)]
    problems += [
        f"bad unit {m['unit']!r}"
        for key in ("end_to_end", "per_layer")
        for m in manifest[key]
        if not _UNIT.fullmatch(m["unit"])
    ]
    problems += [
        f"bound of {m['name']} outside (0, 0.25]"
        for m in manifest["end_to_end"]
        if not 0 < m["bound"] <= 0.25
    ]
    if not any(
        (m["name"], m["unit"], m["better"]) == ("setup_s", "s", "lower")
        for m in manifest["end_to_end"]
    ):
        problems.append("no setup_s metric in s, lower is better")
    return problems


def check_results(results: dict) -> list[str]:
    """The ledger's file carries every metric of every workload."""
    problems = []
    for name in workloads.WORKLOADS:
        entry = results["workloads"].get(name, {})
        if entry.get("failed", 1) or entry.get("traced_failed", 1):
            problems.append(f"{name}: failed operations or missing run")
        for metric, *_ in metrics.END_TO_END:
            row = entry.get("end_to_end", {}).get(metric)
            if row is None or not all(
                math.isfinite(v) and v > 0 for v in row["values"]
            ):
                problems.append(f"{name}: {metric} missing, zero or not finite")
        for metric, *_ in metrics.PER_LAYER:
            value = entry.get("per_layer", {}).get(metric)
            if value is None or not math.isfinite(value):
                problems.append(f"{name}: {metric} missing or not finite")
    return problems


def check_tracing_removed() -> list[str]:
    """Install then uninstall: every target is the original object again."""
    before = tracing.target_objects()
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = tracing.target_objects()
    tracer.uninstall()
    problems = []
    if any(a is b for a, b in zip(before, wrapped)):
        problems.append("install left a target unwrapped")
    if any(a is not b for a, b in zip(before, tracing.target_objects())):
        problems.append("uninstall left a target wrapped")
    return problems


def check_ignored() -> list[str]:
    lines = (ROOT / ".gitignore").read_text().split()
    return [] if "bench/out/" in lines else [".gitignore lacks bench/out/"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", required=True,
        help="the only mode: smoke sizes",
    )
    parser.parse_args(argv)
    problems = check_manifest() + check_tracing_removed() + check_ignored()
    code = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--smoke", "--traced", "--seconds", "0",
        ],
        check=False,
        stdout=subprocess.DEVNULL,
    ).returncode
    if code != 0:
        problems.append(f"ledger exited with {code}")
    else:
        results = json.loads((BENCH_DIR / "out" / "results.json").read_text())
        problems += check_results(results)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

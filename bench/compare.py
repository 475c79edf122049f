"""Compare two ledger files: ``python3 bench/compare.py A.json B.json``.

A is the parent (or ``bench/baseline.json``), B the change. Each
(end-to-end metric, workload) pair gets its own row and one verdict,
from the bound ``metrics.END_TO_END`` fixes for the metric:

- ``worse``: B's value is worse than A's by more than the bound;
- ``better``: B's value is better than A's by more than the bound;
- ``same``: the values are within the bound of each other;
- ``unresolved``: the spread between a run's passes (quartile distance
  as a share of the value, the larger of the two sides) is wider than
  the bound and the two sides' passes overlap, so the runs cannot tell.

Exits with 1 when any row is ``worse`` or either side had failed
operations, else 0. Digest and query-count differences are printed: the
same commit and seed must give none.
"""

from __future__ import annotations

import json
import sys

import metrics


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict for one row and the share by which B is worse (negative
    when better)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(
        (side["q3"] - side["q1"]) / side["value"] for side in (a, b)
    )
    overlap = not (
        max(b["values"]) < min(a["values"])
        or min(b["values"]) > max(a["values"])
    )
    if spread > bound and overlap:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0])
        return 2
    with open(argv[0]) as handle:
        side_a = json.load(handle)
    with open(argv[1]) as handle:
        side_b = json.load(handle)
    for label, side in (("A", side_a), ("B", side_b)):
        env = side["environment"]
        print(
            f"{label}: commit {env['commit'][:12]} seed {side['seed']} "
            f"nproc {env['nproc']} load {env['loadavg_1min']:.2f}"
            + ("  NOISY" if env["noisy"] else "")
        )
    exit_code = 0
    for name, a in side_a["workloads"].items():
        b = side_b["workloads"].get(name)
        if b is None or "end_to_end" not in a or "end_to_end" not in b:
            print(f"{name}: missing on one side")
            exit_code = 1
            continue
        if a["failed"] or b["failed"]:
            print(f"{name}: failed operations A={a['failed']} B={b['failed']}")
            exit_code = 1
        if side_a["seed"] == side_b["seed"]:
            same = a["digest"] == b["digest"] and a["queries"] == b["queries"]
            print(
                f"{name}: decisions "
                + ("identical" if same else "DIFFER (digest or query count)")
            )
        for metric, unit, better, bound in metrics.END_TO_END:
            status, worsening = verdict(
                a["end_to_end"][metric], b["end_to_end"][metric], better, bound
            )
            if status == "worse":
                exit_code = 1
            print(
                f"  {name:16s} {metric:18s} {status:10s} "
                f"A {a['end_to_end'][metric]['value']:12.6g} "
                f"B {b['end_to_end'][metric]['value']:12.6g} {unit:5s} "
                f"{worsening:+7.1%} worse (bound {bound:.0%})"
            )
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""E15 — the footprint-keyed compiled-plan cache on repeated templates.

Production workloads repeat: the same query shapes arrive over and over
with literals drawn from a small pool. Without a plan cache every
execution re-chooses an access path per chunk — zone-map prune checks,
index-plan selection, statistics-based output widths — even though
nothing structural changed since the last identical query. The compiled
plan layer memoises that work keyed on ``(footprint, query)``, so a
repeated query skips compilation entirely until a configuration change
touches something its plan binds.

The experiment executes an identical repeated-template workload on two
identical databases — plan cache disabled (the former per-execution
re-planning path) and enabled — and checks that caching (a) speeds up
end-to-end execution by at least 1.5x, (b) skips the vast majority of
compilations, and (c) is semantically invisible: identical match counts
and identical simulated costs, query by query. A mid-workload
``create_index`` verifies that footprint keys keep cached plans honest
while the workload is running.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_e15_plan_cache.py``) or standalone (``PYTHONPATH=src
python benchmarks/bench_e15_plan_cache.py --quick``), which is what the
CI smoke step does.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from conftest import save_table

from repro.dbms import Database, DataType, TableSchema
from repro.workload import Predicate, Query

N_EXECUTIONS = 6_000
ROWS = 40_000
CHUNK_SIZE = 500
#: distinct literal combinations the repeated templates draw from
POOL = 24
#: structural change injected at this fraction of the workload
RECONFIGURE_AT = 0.5
MIN_SPEEDUP = 1.5


def _make_database() -> Database:
    db = Database()
    schema = TableSchema.build(
        "events",
        [
            ("id", DataType.INT),
            ("user", DataType.INT),
            ("value", DataType.FLOAT),
        ],
    )
    table = db.create_table(schema, target_chunk_size=CHUNK_SIZE)
    rng = np.random.default_rng(7)
    table.append(
        {
            "id": np.arange(ROWS),
            "user": rng.integers(0, 1_000, ROWS),
            "value": rng.uniform(0, 10, ROWS),
        }
    )
    # a user index makes index-plan choice part of every compilation
    db.create_index("events", ["user"])
    return db


def _workload(executions: int) -> list[Query]:
    """A repeated-template stream: literals from a bounded pool, so the
    same concrete queries recur many times each."""
    rng = np.random.default_rng(21)
    span = ROWS // POOL
    pool: list[Query] = []
    for i in range(POOL):
        lo = int(i * span)
        # prune-heavy: the id range covers ~1/POOL of the chunks, every
        # other chunk is excluded by its zone map at compile time
        pool.append(
            Query(
                "events",
                (
                    Predicate("id", ">=", lo),
                    Predicate("id", "<", lo + span),
                    Predicate("user", "=", int(i * 41 % 1_000)),
                ),
                aggregate="count",
            )
        )
    order = rng.integers(0, POOL, executions)
    return [pool[i] for i in order]


def _run(queries: list[Query], cached: bool):
    db = _make_database()
    if not cached:
        db.planner.resize_cache(0)
    reconfigure_at = int(len(queries) * RECONFIGURE_AT)
    row_counts = np.empty(len(queries), dtype=np.int64)
    sim_ms = np.empty(len(queries))
    started = time.perf_counter()
    for i, query in enumerate(queries):
        if i == reconfigure_at:
            # a structural change mid-stream to a column every query has
            # a predicate on: cached plans for the old configuration must
            # not survive it (an index on `value`, which no query here
            # reads, would — rightly — retire none of them)
            db.create_index("events", ["id"])
        result = db.execute(query)
        row_counts[i] = result.row_count
        sim_ms[i] = result.report.elapsed_ms
    elapsed = time.perf_counter() - started
    return row_counts, sim_ms, elapsed, db.planner.cache_stats


def run_experiment(executions: int = N_EXECUTIONS) -> dict:
    queries = _workload(executions)
    cold_rows, cold_ms, cold_s, cold_stats = _run(queries, cached=False)
    warm_rows, warm_ms, warm_s, warm_stats = _run(queries, cached=True)
    lookups = warm_stats.hits + warm_stats.misses
    return {
        "executions": executions,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
        "skip_ratio": warm_stats.hits / lookups if lookups else 0.0,
        "identical_rows": bool(np.array_equal(cold_rows, warm_rows)),
        "identical_sim_ms": bool(np.array_equal(cold_ms, warm_ms)),
    }


def report(result: dict) -> None:
    cold, warm = result["cold_stats"], result["warm_stats"]
    save_table(
        "e15_plan_cache",
        ["variant", "seconds", "hits", "misses", "compile_skip", "speedup"],
        [
            ["uncached", round(result["cold_s"], 3), cold.hits,
             cold.misses, "-", 1.0],
            ["cached", round(result["warm_s"], 3), warm.hits,
             warm.misses, f"{result['skip_ratio']:.1%}",
             round(result["speedup"], 2)],
        ],
        f"E15: {result['executions']} repeated-template executions with "
        "the footprint-keyed compiled-plan cache (one mid-stream create_index)",
    )


def check_invariants(result: dict) -> None:
    warm = result["warm_stats"]
    assert result["identical_rows"], "caching changed query results"
    assert result["identical_sim_ms"], "caching changed simulated costs"
    # repeated templates mostly skip compilation ...
    assert result["skip_ratio"] > 0.9, (
        f"compile-skip ratio {result['skip_ratio']:.1%} below 90%"
    )
    # ... but the mid-stream index build forced recompilations: at least
    # one miss per pool entry per structural state
    assert warm.misses >= 2 * POOL
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"plan-cache speedup {result['speedup']:.2f}x below {MIN_SPEEDUP}x"
    )


def test_e15_plan_cache_speedup():
    result = run_experiment()
    report(result)
    check_invariants(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2000 executions instead of 6000 (CI smoke)")
    args = parser.parse_args(argv)
    result = run_experiment(2_000 if args.quick else N_EXECUTIONS)
    report(result)
    check_invariants(result)
    print(f"OK: {result['speedup']:.2f}x speedup, "
          f"{result['skip_ratio']:.1%} of compilations skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden tests: the vectorized kernel vs the retained scalar reference.

The kernel's contract is *bit-identical* simulated results — not "close",
identical. Every test here builds two identically-seeded databases, runs
the same query/mutation script through the kernel path on one and the
scalar reference path (``QueryExecutor._run_scalar``) on the other, and
compares every report field, work counter, aggregate, and materialised
row with exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbms import Database, DataType, TableSchema
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.workload.predicate import Predicate
from repro.workload.query import Query

ROWS = 4_000
CHUNK = 500

INT_ENCODINGS = [
    EncodingType.UNENCODED,
    EncodingType.DICTIONARY,
    EncodingType.RUN_LENGTH,
    EncodingType.FRAME_OF_REFERENCE,
]


def _build_db() -> Database:
    """A deterministic multi-chunk table exercising prune, index and scan."""
    db = Database()
    schema = TableSchema.build(
        "events",
        [
            ("id", DataType.INT),
            ("user", DataType.INT),
            ("kind", DataType.STRING),
            ("value", DataType.FLOAT),
        ],
    )
    table = db.create_table(schema, target_chunk_size=CHUNK)
    rng = np.random.default_rng(42)
    table.append(
        {
            # sorted ids -> disjoint per-chunk zone maps -> real pruning
            "id": np.arange(ROWS),
            "user": rng.integers(0, 50, ROWS),
            "kind": rng.choice(["view", "click", "buy"], ROWS),
            "value": rng.uniform(0, 10, ROWS),
        }
    )
    return db


#: queries covering prune-heavy, index-probe, full-scan, residual,
#: empty-result, and no-predicate shapes
QUERIES = [
    ("prune+scan", Query("events", (Predicate("id", "<", 800),), aggregate="count"), False),
    (
        "index+take",
        Query(
            "events",
            (Predicate("user", "=", 7),),
            aggregate="sum",
            aggregate_column="value",
        ),
        False,
    ),
    (
        "index+residual",
        Query(
            "events",
            (Predicate("user", "=", 3), Predicate("value", "<", 5.0)),
            aggregate="count",
        ),
        False,
    ),
    (
        "scan+materialize",
        Query(
            "events",
            (
                Predicate("kind", "=", "click"),
                Predicate("id", ">=", 1_000),
                Predicate("id", "<", 3_000),
            ),
            projection=("id", "value"),
        ),
        True,
    ),
    ("no-predicate", Query("events", (), aggregate="count"), False),
    (
        "empty-result",
        Query("events", (Predicate("user", "=", 9_999),), aggregate="count"),
        False,
    ),
    (
        "scan-no-materialize",
        Query("events", (Predicate("value", "<", 2.0),)),
        False,
    ),
]


#: the string column met by present and absent literals, ``!=``, ranges,
#: and as the second mask of a conjunction (the kernel's in-place ``&=``)
STRING_QUERIES = [
    ("present", Query("events", (Predicate("kind", "=", "buy"),), aggregate="count"), False),
    # between "click" and "view": no zone map prunes it, no row has it
    ("absent", Query("events", (Predicate("kind", "=", "refund"),), aggregate="count"), False),
    ("not-equal", Query("events", (Predicate("kind", "!=", "view"),), projection=("id", "kind")), True),
    ("not-absent", Query("events", (Predicate("kind", "!=", "refund"),), aggregate="count"), False),
    ("range", Query("events", (Predicate("kind", ">=", "click"),), aggregate="count"), False),
    ("below-all", Query("events", (Predicate("kind", "<=", "a"),), aggregate="count"), False),
    (
        "second-mask",
        Query(
            "events",
            (Predicate("user", "<", 10), Predicate("kind", "!=", "click")),
            aggregate="sum",
            aggregate_column="value",
        ),
        False,
    ),
]


def _run_script(
    db: Database, *, mutate, queries=QUERIES
) -> list[tuple[str, object]]:
    """One deterministic execution script; returns labelled results."""
    out: list[tuple[str, object]] = []

    def run_all(tag: str, probe: bool = False) -> None:
        table = db.table("events")
        for label, query, materialize in queries:
            result = db.executor.execute(
                query, table, probe=probe, materialize=materialize
            )
            out.append((f"{tag}:{label}", result))

    mutate(db)
    run_all("dram")  # all-DRAM fast path
    run_all("dram-probe", probe=True)
    db.move_chunk("events", 1, StorageTier.SSD)
    db.move_chunk("events", 3, StorageTier.SSD)
    db.move_chunk("events", 5, StorageTier.NVM)
    run_all("cold")  # mixed tiers, pool misses
    run_all("warm")  # mixed tiers, pool hits
    run_all("warm-probe", probe=True)  # peek-only pool reads
    db.set_knob(SCAN_THREADS_KNOB, 4)
    run_all("threads")
    db.set_knob(BUFFER_POOL_KNOB, 0)
    run_all("no-pool")  # every non-DRAM access misses
    return out


def _assert_identical(label: str, kernel, scalar) -> None:
    assert kernel.row_count == scalar.row_count, label
    assert kernel.aggregate_value == scalar.aggregate_value, label
    kr, sr = kernel.report, scalar.report
    for field in (
        "elapsed_ms",
        "scan_ms",
        "probe_ms",
        "output_ms",
        "aggregate_ms",
        "overhead_ms",
    ):
        assert getattr(kr, field) == getattr(sr, field), (label, field)
    kw, sw = kr.work, sr.work
    for field in (
        "scan_units",
        "probe_units",
        "output_bytes",
        "aggregate_rows",
        "rows_matched",
        "chunks_visited",
        "chunks_via_index",
        "buffer_hits",
        "buffer_misses",
        "per_chunk",
    ):
        assert getattr(kw, field) == getattr(sw, field), (label, field)
    if scalar.rows is None:
        assert kernel.rows is None, label
    else:
        assert kernel.rows is not None, label
        assert set(kernel.rows) == set(scalar.rows), label
        for name in scalar.rows:
            assert np.array_equal(kernel.rows[name], scalar.rows[name]), (
                label,
                name,
            )


def _compare_paths(mutate, queries=QUERIES) -> None:
    db_kernel = _build_db()
    db_scalar = _build_db()
    assert db_kernel.executor.use_kernel
    db_scalar.executor.use_kernel = False
    kernel_results = _run_script(db_kernel, mutate=mutate, queries=queries)
    scalar_results = _run_script(db_scalar, mutate=mutate, queries=queries)
    assert len(kernel_results) == len(scalar_results)
    for (label, kernel), (slabel, scalar) in zip(
        kernel_results, scalar_results
    ):
        assert label == slabel
        _assert_identical(label, kernel, scalar)


@pytest.mark.parametrize("encoding", INT_ENCODINGS, ids=lambda e: e.value)
def test_kernel_bit_identical_per_encoding(encoding):
    """Kernel == scalar across every encoding × prune/index/scan/tiers."""

    def mutate(db: Database) -> None:
        db.set_encoding("events", "user", encoding)
        db.set_encoding("events", "id", encoding)
        db.set_encoding("events", "kind", EncodingType.DICTIONARY)
        db.create_index("events", ["user"])

    _compare_paths(mutate)


@pytest.mark.parametrize(
    "encoding",
    [EncodingType.UNENCODED, EncodingType.RUN_LENGTH, EncodingType.DICTIONARY],
    ids=lambda e: e.value,
)
def test_kernel_bit_identical_per_string_encoding(encoding):
    """Kernel == scalar with the string column in every encoding it
    supports: unencoded and run-length compare codes the kernel's bound
    predicates derived, which no priced quantity may see."""

    def mutate(db: Database) -> None:
        db.set_encoding("events", "kind", encoding)

    _compare_paths(mutate, STRING_QUERIES)


def test_kernel_bit_identical_without_index():
    """Pure scan/prune plans (no index probes anywhere)."""
    _compare_paths(lambda db: None)


def test_kernel_bit_identical_composite_index():
    """Composite-key probes with equality prefix + range refinement."""

    def mutate(db: Database) -> None:
        db.create_index("events", ["user", "id"])

    _compare_paths(mutate)


def test_kernel_survives_chunk_count_change():
    """Appending rows recompiles plans; the kernel must track the new
    chunk count rather than serve stale arrays."""
    db = _build_db()
    query = Query("events", (Predicate("user", "=", 7),), aggregate="count")
    before = db.execute(query)
    db.table("events").append(
        {
            "id": np.arange(ROWS, ROWS + CHUNK),
            "user": np.full(CHUNK, 7),
            "kind": np.array(["view"] * CHUNK),
            "value": np.zeros(CHUNK),
        }
    )
    after = db.execute(query)
    assert after.report.work.chunks_visited == before.report.work.chunks_visited + 1
    assert after.aggregate_value > before.aggregate_value


def test_kernel_tier_cache_tracks_direct_mutation():
    """Even a *direct* chunk.tier assignment (no accounted action) must
    drop the table's memoised non-DRAM scan the kernel reads."""
    db = _build_db()
    query = Query("events", (), aggregate="count")
    db.execute(query)  # memoise the all-DRAM state
    db.table("events").chunk(0).tier = StorageTier.SSD
    report = db.execute(query).report
    assert report.work.buffer_hits + report.work.buffer_misses == 1


def test_scan_units_are_the_scalar_left_fold():
    """All-DRAM, dictionary-encoded predicate columns, every chunk
    surviving with its own match count: ``scan_units`` is the scalar
    loop's ``+=`` in chunk order, to the bit — which a compensated sum
    (builtin ``sum`` since Python 3.12) is not."""
    query = Query(
        "events",
        (Predicate("user", "=", 7), Predicate("kind", "=", "click")),
        aggregate="count",
    )
    results = []
    for use_kernel in (True, False):
        db = _build_db()
        db.set_encoding("events", "user", EncodingType.DICTIONARY)
        db.set_encoding("events", "kind", EncodingType.DICTIONARY)
        db.executor.use_kernel = use_kernel
        results.append(db.executor.execute(query, db.table("events")))
    kernel, scalar = results
    _assert_identical("left-fold", kernel, scalar)

    table = db.table("events")
    plan = db.planner.plan_for(query, table)
    expected = 0.0
    survivors = []
    for chunk, step in zip(table.chunks(), plan.steps, strict=True):
        alive = np.ones(chunk.row_count, dtype=bool)
        units = 0.0
        for pred in step.scan_predicates:
            if not alive.any():
                break
            segment = chunk.segment(pred.column)
            units += segment.scan_units(int(alive.sum()))
            units += segment.scan_overhead_units()
            alive &= segment.values() == pred.value
        survivors.append(int(alive.sum()))
        expected += units
    assert len(survivors) >= 3 and len(set(survivors)) > 1
    assert kernel.report.work.scan_units == expected


def test_one_cached_plan_priced_across_a_placement_change():
    """Tiers are not part of a plan: the same cached plan — and the same
    kernel scratch, priced constants included — is executed before a chunk
    leaves DRAM, while it is cold, once it is pooled, and after it returns."""
    db_kernel = _build_db()
    db_scalar = _build_db()
    db_scalar.executor.use_kernel = False
    for db in (db_kernel, db_scalar):
        db.create_index("events", ["user"])
    plans: dict[str, set[int]] = {}

    def run_all(tag: str) -> None:
        for label, query, materialize in QUERIES:
            kernel, scalar = (
                db.executor.execute(
                    query, db.table("events"), materialize=materialize
                )
                for db in (db_kernel, db_scalar)
            )
            _assert_identical(f"{tag}:{label}", kernel, scalar)
            plan = db_kernel.planner.plan_for(query, db_kernel.table("events"))
            plans.setdefault(label, set()).add(id(plan.kernel().cache))

    def move(chunk_id: int, tier: StorageTier) -> None:
        for db in (db_kernel, db_scalar):
            db.move_chunk("events", chunk_id, tier)

    run_all("dram")
    move(0, StorageTier.SSD)  # a scanned chunk of the prune-heavy query
    move(6, StorageTier.NVM)
    run_all("cold")
    run_all("warm")
    move(0, StorageTier.DRAM)
    run_all("one-back")
    move(6, StorageTier.DRAM)
    run_all("dram-again")
    assert all(len(caches) == 1 for caches in plans.values()), plans
    assert db_kernel.planner.cache_stats.misses == len(QUERIES)

"""Golden tests: the vectorized kernel vs the scalar reference.

The kernel's contract is *bit-identical* simulated results — not "close",
identical. Every test here builds two identically-seeded databases, runs
the same query/mutation script through the product on one and, inside
:func:`tests.reference.scalar_reference`, through the per-chunk loop
(``scalar_run_plan``) on the other, and compares every report field, work
counter, aggregate, and materialised row with exact equality. Each test
also asserts that the reference ran: a count of 0 would mean the product
was compared with itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms import Database, DataType, TableSchema
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB
from repro.dbms.segments import COMPARISON_OPS, EncodingType, _compare_array
from repro.dbms.storage_tiers import StorageTier
from repro.workload.predicate import Predicate
from repro.workload.query import Query
from tests.reference import reference_compile, scalar_reference

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


def _same(a, b) -> bool:
    """Equality, with a NaN equal to a NaN: an aggregate over NaN rows is
    NaN on both paths."""
    return a == b or (a != a and b != b)


def _assert_identical(label: str, kernel, scalar) -> None:
    assert kernel.row_count == scalar.row_count, label
    assert _same(kernel.aggregate_value, scalar.aggregate_value), label
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
    ):
        assert getattr(kw, field) == getattr(sw, field), (label, field)
    if scalar.rows is None:
        assert kernel.rows is None, label
    else:
        assert kernel.rows is not None, label
        assert set(kernel.rows) == set(scalar.rows), label
        for name, column in scalar.rows.items():
            assert np.array_equal(
                kernel.rows[name], column, equal_nan=column.dtype.kind == "f"
            ), (label, name)


def _compare_paths(mutate, queries=QUERIES) -> None:
    kernel_results = _run_script(_build_db(), mutate=mutate, queries=queries)
    with scalar_reference() as calls:
        scalar_results = _run_script(
            _build_db(), mutate=mutate, queries=queries
        )
    assert calls.count == len(scalar_results) > 0
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
    dbs = [_build_db(), _build_db()]
    for db in dbs:
        db.set_encoding("events", "user", EncodingType.DICTIONARY)
        db.set_encoding("events", "kind", EncodingType.DICTIONARY)
    kernel = dbs[0].executor.execute(query, dbs[0].table("events"))
    with scalar_reference() as calls:
        db = dbs[1]
        scalar = db.executor.execute(query, db.table("events"))
    assert calls.count == 1
    _assert_identical("left-fold", kernel, scalar)

    table = db.table("events")
    plan = db.planner.plan_for(query, table)
    expected = 0.0
    survivors = []
    for chunk, step in zip(table.chunks(), plan.steps, strict=True):
        alive = np.ones(chunk.row_count, dtype=bool)
        units = 0.0
        for pred in [query.predicates[p] for p in step.scan_positions]:
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
    for db in (db_kernel, db_scalar):
        db.create_index("events", ["user"])
    plans: dict[str, set[int]] = {}
    reference_runs = 0

    def run_all(tag: str) -> None:
        nonlocal reference_runs
        for label, query, materialize in QUERIES:
            kernel = db_kernel.executor.execute(
                query, db_kernel.table("events"), materialize=materialize
            )
            # only the scalar database's calls run the reference
            with scalar_reference() as calls:
                scalar = db_scalar.executor.execute(
                    query, db_scalar.table("events"), materialize=materialize
                )
            reference_runs += calls.count
            _assert_identical(f"{tag}:{label}", kernel, scalar)
            plan = db_kernel.planner.plan_for(query, db_kernel.table("events"))
            plans.setdefault(label, set()).add(id(plan.memo))

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
    assert reference_runs == 5 * len(QUERIES) > 0


# ----------------------------------------------------------------------
# property: kernel == scalar on generated tables

#: per-column encodings a generated chunk may carry
_ENCODINGS = {
    "x": INT_ENCODINGS,
    "s": [EncodingType.UNENCODED, EncodingType.RUN_LENGTH, EncodingType.DICTIONARY],
    "f": [EncodingType.UNENCODED, EncodingType.RUN_LENGTH, EncodingType.DICTIONARY],
}


#: float values, NaN among them; 2**48 and 2**48 + 0.5 are fewer than 32
#: float64 steps apart, so no 32 bin edges fit between them
_FLOATS = [-1.5, 0.0, 0.5, 2.25, 7.0, 1e12, float("nan"), 2.0**48, 2.0**48 + 0.5]


@st.composite
def _tables(draw):
    """Appends of uneven sizes (one of a single row, some of one repeated
    value) into 16-row chunks, strings of a different width per append,
    integers near 0, 2**46 or 2**48, floats with NaNs and values >= 2**47;
    then an encoding per chunk and column, and indexes on some chunks."""
    sizes = draw(st.lists(st.integers(2, 40), min_size=1, max_size=4))
    sizes.insert(draw(st.integers(0, len(sizes))), 1)
    base, stride = draw(
        st.sampled_from([(0, 1), (2**46, 2**10), (2**48, 2**10)])
    )
    appends = []
    for size in sizes:
        # one value per numeric column: chunks whose min equals their max
        width = 1 if draw(st.booleans()) else size
        appends.append(
            {
                "x": [
                    base + v * stride
                    for v in draw(
                        st.lists(
                            st.sampled_from(range(-20, 21)),
                            min_size=width,
                            max_size=width,
                        )
                    )
                ]
                * (size // width),
                "s": draw(
                    st.lists(
                        st.text(alphabet="abé", max_size=draw(st.integers(1, 4))),
                        min_size=size,
                        max_size=size,
                    )
                ),
                "f": draw(
                    st.lists(
                        st.sampled_from(_FLOATS), min_size=width, max_size=width
                    )
                )
                * (size // width),
            }
        )
    chunk_count = 0
    for size in sizes:
        chunk_count += -(-size // 16)
    chunk_ids = list(range(chunk_count))
    encodings = [
        (column, draw(st.sampled_from(options)), cid)
        for column, options in _ENCODINGS.items()
        for cid in chunk_ids
    ]
    indexes = [
        (key, draw(st.lists(st.sampled_from(chunk_ids), min_size=1, unique=True)))
        for key in (("x",), ("s", "x"))
    ]
    return appends, encodings, indexes


def _generated_db(spec) -> Database:
    appends, encodings, indexes = spec
    db = Database()
    schema = TableSchema.build(
        "gen",
        [
            ("id", DataType.INT),
            ("x", DataType.INT),
            ("s", DataType.STRING),
            ("f", DataType.FLOAT),
        ],
    )
    table = db.create_table(schema, target_chunk_size=16)
    start = 0
    for columns in appends:
        size = len(columns["x"])
        # sorted ids: disjoint zone maps, so literals prune chunks
        table.append({"id": np.arange(start, start + size), **columns})
        start += size
    for column, encoding, cid in encodings:
        db.set_encoding("gen", column, encoding, chunk_ids=[cid])
    for key, chunk_ids in indexes:
        db.create_index("gen", key, chunk_ids=chunk_ids)
    return db


def _literals(spec, column: str):
    """Present, absent and out-of-range literals for ``column``, and the
    kinds whose meaning differs between encodings."""
    appends = spec[0]
    values = [v for columns in appends for v in columns.get(column, [])]
    if column == "id":
        total = 0
        for columns in appends:
            total += len(columns["x"])
        values = list(range(total))
    if column == "s":
        present = st.sampled_from(values)
        return st.one_of(
            present,
            present,
            present.map(lambda v: v + "!"),  # absent
            st.sampled_from(["", "A", chr(0x10FFFF), "aé", "abéab"]),
            st.sampled_from([5, 2.5, None, b"a"]),  # not a string
        )
    present = st.sampled_from(values)
    return st.one_of(
        present,
        present.map(lambda v: v + 1),  # often absent
        st.just(min(values) - 1),  # out of range
        st.just(max(values) + 1),
        present.map(lambda v: v + 0.5),  # non-integral
        st.sampled_from([2**53 + 1, -(2**62), 2.0**60, float(2**60 + 2**8)]),
    )


@st.composite
def _queries(draw, spec):
    columns = ("id", "x", "s", "f")
    # equality twice as often: the selective predicate that empties
    # some chunks of a run and not others
    ops = st.sampled_from(("=",) + COMPARISON_OPS)
    predicates = tuple(
        Predicate(column, draw(ops), draw(_literals(spec, column)))
        for column in draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3))
    )
    shape = draw(
        st.sampled_from(
            ["count", "sum-x", "avg-f", "min-s", "max-s", "min-x", "max-f"]
            + ["project"] * 4
        )
    )
    materialize = draw(st.booleans())
    if shape == "project":
        projection = tuple(
            draw(st.lists(st.sampled_from(columns), min_size=1, max_size=4, unique=True))
        )
        return Query("gen", predicates, projection=projection), materialize
    if shape == "count":
        return Query("gen", predicates, aggregate="count"), materialize
    function, column = shape.split("-")
    return (
        Query("gen", predicates, aggregate=function, aggregate_column=column),
        materialize,
    )


def _outcome(db: Database, query: Query, materialize: bool):
    try:
        return db.executor.execute(
            query, db.table("gen"), materialize=materialize
        )
    except Exception as exc:  # the type is the outcome under test
        return type(exc)


def _numpy_answer(db: Database, query: Query):
    """``(rows_matched, aggregate)`` of ``query`` from numpy alone: every
    predicate compared over the table's decoded values, no plan — so a
    chunk pruned, probed or scanned wrongly shows as a different answer."""
    chunks = db.table("gen").chunks()

    def decoded(name: str) -> np.ndarray:
        return np.concatenate([chunk.segment(name).values() for chunk in chunks])

    mask = np.ones(sum(chunk.row_count for chunk in chunks), dtype=bool)
    for pred in query.predicates:
        mask &= _compare_array(decoded(pred.column), pred.op, pred.value)
    matched = int(mask.sum())
    if query.aggregate is None:
        return matched, None
    if query.aggregate == "count":
        return matched, float(matched)
    values = decoded(query.aggregate_column)[mask]
    if values.size == 0:
        return matched, None
    if values.dtype.kind == "U":
        ordered = np.sort(values)
        return matched, str(ordered[0] if query.aggregate == "min" else ordered[-1])
    reduce = {"sum": np.sum, "avg": np.mean, "min": np.min, "max": np.max}
    return matched, float(reduce[query.aggregate](values))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_property_kernel_equals_scalar_on_generated_tables(data):
    """Runs of scanned chunks split by prunes and by index probes, over
    chunks of uneven sizes and mixed encodings, under literals of every
    kind — including those an encoding answers its own way, with its own
    exception: the kernel's batched data pass gives the scalar loop's
    every field, to the bit, on the first execution and on the cached
    plan's second. And what both return is what numpy finds in the
    decoded table."""
    spec = data.draw(_tables())
    queries = data.draw(st.lists(_queries(spec), min_size=4, max_size=8))
    kernel_db = _generated_db(spec)
    scalar_db = _generated_db(spec)
    for query, materialize in queries + queries:
        kernel = _outcome(kernel_db, query, materialize)
        with scalar_reference() as calls:
            scalar = _outcome(scalar_db, query, materialize)
        label = (str(query), materialize)
        if isinstance(scalar, type) or isinstance(kernel, type):
            assert kernel == scalar, label
            continue
        assert calls.count == 1, label
        _assert_identical(label, kernel, scalar)
        assert vars(kernel.report.work) == vars(scalar.report.work), label
        if scalar.rows is not None:
            for name, column in scalar.rows.items():
                assert kernel.rows[name].dtype == column.dtype, (label, name)
        try:
            matched, aggregate = _numpy_answer(kernel_db, query)
        except TypeError:  # a literal numpy cannot compare: no ground truth
            continue
        assert kernel.report.work.rows_matched == matched, label
        assert _same(kernel.aggregate_value, aggregate), label


def _two_chunk_db(s_encodings) -> Database:
    """Chunk 0: x in {1, 3}; chunk 1: x = 2 throughout. Neither zone map
    excludes ``x = 2``, which empties chunk 0 alone."""
    db = Database()
    schema = TableSchema.build("gen", [("x", DataType.INT), ("s", DataType.STRING)])
    table = db.create_table(schema, target_chunk_size=4)
    table.append(
        {"x": [1, 3, 1, 3, 2, 2, 2, 2], "s": ["1", "7", "1", "7"] * 2}
    )
    for cid, encoding in enumerate(s_encodings):
        db.set_encoding("gen", "s", encoding, chunk_ids=[cid])
    return db


def _both_paths(s_encodings, predicates):
    query = Query("gen", predicates, aggregate="count")
    kernel = _outcome(_two_chunk_db(s_encodings), query, False)
    with scalar_reference() as calls:
        scalar = _outcome(_two_chunk_db(s_encodings), query, False)
    assert calls.count == 1
    return [kernel, scalar]


def test_kernel_raises_only_where_the_scalar_loop_reaches():
    """``s < 5`` raises on an unencoded string chunk and not on a
    dictionary one. The scalar loop never evaluates it on chunk 0, which
    ``x = 2`` empties first — so neither does the kernel's batched run."""
    kernel, scalar = _both_paths(
        (EncodingType.UNENCODED, EncodingType.DICTIONARY),
        (Predicate("x", "=", 2), Predicate("s", "<", 5)),
    )
    assert not isinstance(scalar, type)
    _assert_identical("reach", kernel, scalar)


def test_kernel_raises_the_first_chunks_exception():
    """Chunk 0 raises at the first predicate, chunk 1 — alive after it —
    at the second, with another exception type: the scalar loop finishes
    chunk 0 first, and the kernel raises what it raises."""
    kernel, scalar = _both_paths(
        (EncodingType.UNENCODED, EncodingType.DICTIONARY),
        (Predicate("s", "<", 5), Predicate("s", "<", None)),
    )
    # chunk 0's numpy loop error, not chunk 1's plain TypeError
    assert issubclass(scalar, TypeError) and scalar is not TypeError
    assert kernel == scalar


# ----------------------------------------------------------------------
# property: the compiler == the per-chunk oracle on generated tables


def _compile_literals(spec, column: str):
    """:func:`_literals`, plus literals each compiler settles on its own:
    a chunk's own bounds (where ``<=`` and ``<`` part), strings on the
    numeric columns (ones ``float()`` accepts, ones it refuses), a NaN,
    ints past 2**53 against the float column's bounds, and a string with
    a NUL."""
    bounds = []
    start = 0
    for columns in spec[0]:
        values = columns[column] if column != "id" else list(
            range(start, start + len(columns["x"]))
        )
        start += len(columns["x"])
        for at in range(0, len(values), 16):
            piece = sorted(v for v in values[at : at + 16] if v == v)
            bounds += [piece[0], piece[-1]] if piece else []
    extra = ["7", "abc", "nan", "", "a\x00"]
    if column == "f":
        extra += [float("nan"), 2**53 + 1, -(2**53) - 3, 2**60]
    return st.one_of(
        _literals(spec, column),
        st.sampled_from(bounds or extra),
        st.sampled_from(extra),
    )


@st.composite
def _compile_queries(draw, spec):
    """A query of one to three predicates in any operator, ``!=``
    included; an equality on ``s`` with a range on ``x`` — the
    two-column key with a range on its next column; or an equality on
    the indexed ``x`` whose estimate may convert a literal ``float()``
    refuses. Each with a projection or an aggregate."""
    columns = ("id", "x", "s", "f")
    shape = draw(st.sampled_from(["any", "any", "key", "refused"]))
    if shape == "refused":
        column = draw(st.sampled_from(columns))
        predicates = (
            Predicate("x", "=", draw(st.sampled_from(["abc", "7", "", 3]))),
            Predicate(
                column,
                draw(st.sampled_from(COMPARISON_OPS)),
                draw(_compile_literals(spec, column)),
            ),
        )[: draw(st.integers(1, 2))]
    elif shape == "any":
        predicates = tuple(
            Predicate(column, draw(st.sampled_from(COMPARISON_OPS)), draw(_compile_literals(spec, column)))
            for column in draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3))
        )
    else:
        predicates = (
            Predicate("s", "=", draw(_compile_literals(spec, "s"))),
            Predicate("x", draw(st.sampled_from([">", ">="])), draw(_compile_literals(spec, "x"))),
            Predicate("x", draw(st.sampled_from(["<", "<="])), draw(_compile_literals(spec, "x"))),
        )[: draw(st.integers(2, 3))]
    if draw(st.booleans()):
        projection = tuple(
            draw(st.lists(st.sampled_from(columns), min_size=1, max_size=4, unique=True))
        )
        return Query("gen", predicates, projection=projection)
    return Query("gen", predicates, aggregate="count")


def _compiled(compile_steps, query: Query, table):
    try:
        return compile_steps(query, table)
    except Exception as exc:  # the type is the outcome under test
        return type(exc)


def _pool(db: Database) -> list:
    """The buffer pool's entries in LRU order."""
    return list(db.executor.buffer_pool._entries.items())


def _assert_same_outcome(label, kernel_db: Database, scalar_db: Database, query):
    """The product's execution of ``query`` against the scalar
    reference's, field by field, or the same exception type; and the
    buffer pool each leaves behind, a raising query's included."""
    kernel = _outcome(kernel_db, query, True)
    with scalar_reference() as calls:
        scalar = _outcome(scalar_db, query, True)
    assert _pool(kernel_db) == _pool(scalar_db), label
    if isinstance(scalar, type) or isinstance(kernel, type):
        assert kernel == scalar, label
        return
    assert calls.count == 1, label
    _assert_identical(label, kernel, scalar)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_property_compile_equals_the_per_chunk_oracle(data):
    """Zone maps, per-footprint access paths and layouts give the steps
    the per-chunk compiler gives — or raise the exception type it raises
    — on a query's first compile and its second, and again after an
    append of an all-NaN float chunk, a re-encode, an index created and
    one dropped, a chunk sorted and a chunk moved. Queries come as
    shapes under several literals, so they share access paths and
    layouts, and each plan runs as the scalar reference runs it."""
    spec = data.draw(_tables())
    queries = []
    for shape in data.draw(st.lists(_compile_queries(spec), min_size=2, max_size=4)):
        queries.append(shape)
        for _ in range(data.draw(st.integers(1, 3))):
            predicates = tuple(
                Predicate(p.column, p.op, data.draw(_compile_literals(spec, p.column)))
                for p in shape.predicates
            )
            queries.append(replace(shape, predicates=predicates))
    dbs = (_generated_db(spec), _generated_db(spec))
    planner = dbs[0].planner

    def product(query, table):
        return planner.compile(query, table).steps

    def check(tag: str) -> None:
        table = dbs[0].table("gen")
        for query in queries + queries:
            label = (tag, str(query))
            expected = _compiled(reference_compile, query, table)
            assert _compiled(product, query, table) == expected, label
            _assert_same_outcome(label, *dbs, query)

    def chunk_id() -> int:
        return data.draw(st.sampled_from(dbs[0].table("gen").chunk_ids()))

    def append() -> None:
        start = dbs[0].table("gen").row_count
        size = data.draw(st.integers(1, 20))
        for db in dbs:
            db.table("gen").append(
                {
                    "id": np.arange(start, start + size),
                    "x": [2**53 + v for v in range(size)],
                    "s": ["b"] * size,
                    "f": [float("nan")] * size,
                }
            )

    def set_encoding() -> None:
        column = data.draw(st.sampled_from(sorted(_ENCODINGS)))
        encoding = data.draw(st.sampled_from(_ENCODINGS[column]))
        cid = chunk_id()
        for db in dbs:
            db.set_encoding("gen", column, encoding, chunk_ids=[cid])

    def create_index() -> None:
        key = data.draw(st.sampled_from([("x",), ("s", "x"), ("f",), ("id",)]))
        cid = chunk_id()
        for db in dbs:
            db.create_index("gen", key, chunk_ids=[cid])

    def drop_index() -> None:
        key = data.draw(st.sampled_from([("x",), ("s", "x")]))
        for db in dbs:
            db.drop_index("gen", key)

    def sort_chunk() -> None:
        column = data.draw(st.sampled_from(["x", "s", "f"]))
        cid = chunk_id()
        for db in dbs:
            db.sort_chunk("gen", cid, column)

    def move_chunk() -> None:
        tier = data.draw(st.sampled_from(list(StorageTier)))
        cid = chunk_id()
        for db in dbs:
            db.move_chunk("gen", cid, tier)

    check("fresh")
    mutations = [append, set_encoding, create_index, drop_index, sort_chunk, move_chunk]
    for mutate in data.draw(st.permutations(mutations)):
        mutate()
        check(mutate.__name__)

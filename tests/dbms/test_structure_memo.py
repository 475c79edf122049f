"""The chunk's structure memo is a pure cache.

Whatever order segments and indexes were first built in, and whether they
came from the memo or from ``np.unique`` / ``np.lexsort``, a chunk must be
indistinguishable from one built from scratch for its current row order,
encodings and index keys.
"""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configuration.actions import (
    CreateIndexAction,
    DropIndexAction,
    SetEncodingAction,
)
from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms import chunk as chunk_module
from repro.dbms.chunk import Chunk
from repro.dbms.index import SortedCompositeIndex
from repro.dbms.schema import TableSchema
from repro.dbms.segments import (
    DictionarySegment,
    EncodingType,
    encode_segment,
    supported_encodings,
)
from repro.dbms.types import DataType, coerce_array
from repro.errors import EncodingError
from repro.ordering.dependence import DependenceAnalyzer
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB

from tests.conftest import make_forecast, make_small_database

_SCHEMA = TableSchema.build(
    "t",
    [
        ("a", DataType.INT),
        ("b", DataType.INT),
        ("s", DataType.STRING),
        ("f", DataType.FLOAT),
    ],
)
_COLUMNS = _SCHEMA.column_names
_ROWS = 257


def _data(seed: int) -> dict[str, np.ndarray]:
    """Decoded columns as ``Table.append`` would hand them to a chunk."""
    rng = np.random.default_rng(seed)
    raw = {
        "a": rng.integers(0, 6, _ROWS),
        "b": rng.integers(-(2**40), 2**40, _ROWS),
        "s": rng.choice(["x", "yy", "zzz"], _ROWS),
        "f": rng.integers(0, 4, _ROWS) / 4.0,
    }
    return {
        name: coerce_array(values, _SCHEMA.data_type(name))
        for name, values in raw.items()
    }


def _same_array(left: np.ndarray | None, right: np.ndarray | None) -> None:
    if left is None or right is None:
        assert left is None and right is None
        return
    assert left.dtype == right.dtype
    assert np.array_equal(left, right)


def _same_segment(live, fresh) -> None:
    assert type(live) is type(fresh)
    assert live.data_type is fresh.data_type
    assert len(live) == len(fresh)
    _same_array(live.values(), fresh.values())
    _same_array(live.sort_key_array(), fresh.sort_key_array())
    assert live.memory_bytes() == fresh.memory_bytes()
    if isinstance(live, DictionarySegment):
        _same_array(live.dictionary, fresh.dictionary)


def _same_index(live: SortedCompositeIndex, fresh: SortedCompositeIndex) -> None:
    assert live.columns == fresh.columns
    assert live.memory_bytes() == fresh.memory_bytes()
    _same_array(live._positions, fresh._positions)
    assert len(live._sorted_keys) == len(fresh._sorted_keys)
    for left, right in zip(live._sorted_keys, fresh._sorted_keys):
        _same_array(left, right)
    for left, right in zip(live._dictionaries, fresh._dictionaries):
        _same_array(left, right)
    assert live._probe_unit_prefix == fresh._probe_unit_prefix


def _assert_fresh(chunk: Chunk, model: dict[str, np.ndarray]) -> None:
    """Every live structure equals one built now from the decoded values."""
    fresh = {
        name: encode_segment(
            model[name], _SCHEMA.data_type(name), chunk.encoding_of(name)
        )
        for name in _COLUMNS
    }
    for name in _COLUMNS:
        _same_segment(chunk.segment(name), fresh[name])
    for key in chunk.index_keys():
        _same_index(chunk.index(key), SortedCompositeIndex.build(key, fresh))
    assert chunk.data_bytes() == sum(s.memory_bytes() for s in fresh.values())


def _assert_same_chunk(left: Chunk, right: Chunk) -> None:
    assert left.sort_column == right.sort_column
    assert left.index_keys() == right.index_keys()
    assert left.memory_bytes() == right.memory_bytes()
    for name in _COLUMNS:
        _same_segment(left.segment(name), right.segment(name))
    for key in left.index_keys():
        _same_index(left.index(key), right.index(key))


_KEYS = [("a",), ("s",), ("a", "b"), ("s", "a"), ("f", "a", "s")]

_OPS = st.one_of(
    st.tuples(
        st.just("encode"),
        st.sampled_from(_COLUMNS),
        st.sampled_from(list(EncodingType)),
    ),
    st.tuples(st.just("create"), st.sampled_from(_KEYS)),
    st.tuples(st.just("drop"), st.sampled_from(_KEYS)),
    st.tuples(st.just("sort"), st.sampled_from(_COLUMNS)),
    st.tuples(st.just("unsort")),
)


class _Run:
    """A chunk, the decoded model of its rows, and the undo stack of its
    sorts; ``step`` applies one generated operation to all three."""

    def __init__(self, seed: int) -> None:
        self.model = _data(seed)
        self.chunk = Chunk(0, _SCHEMA, dict(self.model))
        self.undo: list[tuple[np.ndarray, str | None]] = []

    def _permute(self, permutation: np.ndarray) -> None:
        self.model = {n: v[permutation] for n, v in self.model.items()}

    def step(self, op: tuple) -> None:
        chunk = self.chunk
        if op[0] == "encode":
            _, column, encoding = op
            if encoding in supported_encodings(_SCHEMA.data_type(column)):
                chunk.set_encoding(column, encoding)
            else:
                before = chunk.segment(column)
                with pytest.raises(EncodingError):
                    chunk.set_encoding(column, encoding)
                assert chunk.segment(column) is before
        elif op[0] == "create":
            if not chunk.has_index(op[1]):
                chunk.create_index(op[1])
        elif op[0] == "drop":
            if chunk.has_index(op[1]):
                chunk.drop_index(op[1])
        elif op[0] == "sort":
            if chunk.sort_column != op[1]:
                self._permute(np.argsort(self.model[op[1]], kind="stable"))
            previous = chunk.sort_column
            inverse, _ = chunk.sort_by(op[1])
            self.undo.append((inverse, previous))
        elif self.undo:
            inverse, previous = self.undo.pop()
            chunk.apply_permutation(inverse, previous)
            self._permute(inverse)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 3), ops=st.lists(_OPS, max_size=30))
def test_every_step_equals_a_fresh_build(seed, ops):
    run = _Run(seed)
    _assert_fresh(run.chunk, run.model)
    for op in ops:
        run.step(op)
        _assert_fresh(run.chunk, run.model)


def test_encoding_via_another_encoding_equals_direct():
    """FOR → UNENCODED and DICTIONARY → RLE decode through the source
    encoding; the result must not remember that."""
    run = _Run(1)
    for path in (
        [("b", EncodingType.FRAME_OF_REFERENCE), ("b", EncodingType.UNENCODED)],
        [("s", EncodingType.DICTIONARY), ("s", EncodingType.RUN_LENGTH)],
        [("a", EncodingType.RUN_LENGTH), ("a", EncodingType.FRAME_OF_REFERENCE)],
    ):
        run.step(("create", ("s", "a")))
        run.step(("sort", "s"))  # new row order: every encode below is a miss
        for column, encoding in path:
            run.step(("encode", column, encoding))
            _assert_fresh(run.chunk, run.model)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), ops=st.lists(_OPS, max_size=30))
def test_capacity_one_leaves_the_identical_chunk(seed, ops):
    roomy = _Run(seed)
    tight = _Run(seed)
    tight.chunk._memo._indexes.resize(1)
    for op in ops:
        roomy.step(op)
        tight.step(op)
    _assert_same_chunk(roomy.chunk, tight.chunk)
    _assert_fresh(tight.chunk, tight.model)
    assert len(tight.chunk._memo._indexes) <= 1


_KEY_SCHEMA = TableSchema.build(
    "k",
    [("i", DataType.INT), ("f", DataType.FLOAT), ("s", DataType.STRING)],
)
_KEY_VALUES = {
    "i": st.integers(-3, 3),
    "f": st.sampled_from([float("nan"), 0.0, -0.0, 1.5, -2.25, float("inf")]),
    "s": st.sampled_from(["", "a", "ab", "b", "zz"]),
}


@st.composite
def _key_builds(draw):
    """Rows of the three key-typed columns, with ties, NaN and ±0.0; a
    key of 1–3 of them; and every encoding combination of the key in
    some order."""
    rows = draw(st.integers(1, 40))
    data = {
        name: coerce_array(
            draw(st.lists(values, min_size=rows, max_size=rows)),
            _KEY_SCHEMA.data_type(name),
        )
        for name, values in _KEY_VALUES.items()
    }
    key = tuple(draw(st.permutations(list(_KEY_VALUES))))
    key = key[: draw(st.integers(1, 3))]
    combinations = list(
        itertools.product(
            *(supported_encodings(_KEY_SCHEMA.data_type(c)) for c in key)
        )
    )
    return data, key, draw(st.permutations(combinations))


def _same_keys(left: np.ndarray, right: np.ndarray) -> None:
    assert left.dtype == right.dtype
    assert np.array_equal(left, right, equal_nan=left.dtype.kind == "f")


def _same_probes(
    live: SortedCompositeIndex,
    fresh: SortedCompositeIndex,
    data: dict[str, np.ndarray],
) -> None:
    key = live.columns
    for row in (0, len(data[key[0]]) - 1):
        values = [data[name][row] for name in key]
        for length in range(len(key) + 1):
            _same_array(
                live.lookup(values[:length]), fresh.lookup(values[:length])
            )
            if length < len(key):
                for op in ("<", "<=", "=", ">=", ">"):
                    ranged = (values[:length], [(op, values[length])])
                    _same_array(live.lookup(*ranged), fresh.lookup(*ranged))
            for rows_out in (0, 7):
                assert live.probe_cost_units(
                    length, rows_out
                ) == fresh.probe_cost_units(length, rows_out)


@settings(max_examples=60, deadline=None)
@given(build=_key_builds())
def test_a_memo_index_equals_a_fresh_sort_under_every_encoding(build):
    """However many encodings a key's columns pass through, and in
    whichever order, the memo's index equals one sorted from scratch on
    the same segments; the encodings that key on decoded values get one
    index object, and all of them share one sort order."""
    data, key, combinations = build
    chunk = Chunk(0, _KEY_SCHEMA, dict(data))
    by_flags: dict[tuple[bool, ...], SortedCompositeIndex] = {}
    for encodings in combinations:
        for name, encoding in zip(key, encodings):
            chunk.set_encoding(name, encoding)
        if not chunk.has_index(key):
            chunk.create_index(key)
        live = chunk.index(key)
        fresh_segments = {
            name: encode_segment(data[name], _KEY_SCHEMA.data_type(name), encoding)
            for name, encoding in zip(key, encodings)
        }
        fresh = SortedCompositeIndex.build(key, fresh_segments)
        _same_array(live.positions, fresh.positions)
        assert len(live._sorted_keys) == len(fresh._sorted_keys) == len(key)
        for left, right in zip(live._sorted_keys, fresh._sorted_keys):
            _same_keys(left, right)
        for left, right in zip(live._dictionaries, fresh._dictionaries):
            if left is None or right is None:
                assert left is None and right is None
            else:
                _same_keys(left, right)
        assert live.memory_bytes() == fresh.memory_bytes()
        _same_probes(live, fresh, data)

        flags = tuple(e is EncodingType.DICTIONARY for e in encodings)
        assert by_flags.setdefault(flags, live) is live
        assert live.positions is next(iter(by_flags.values())).positions


def test_memo_reuses_and_a_permutation_drops_it():
    run = _Run(0)
    chunk = run.chunk
    chunk.create_index(("a", "b"))
    first_index = chunk.index(("a", "b"))
    first_segment = chunk.segment("a")
    chunk.set_encoding("a", EncodingType.DICTIONARY)
    assert chunk.index(("a", "b")) is not first_index
    dictionary_index = chunk.index(("a", "b"))
    chunk.set_encoding("a", EncodingType.UNENCODED)
    assert chunk.segment("a") is first_segment
    assert chunk.index(("a", "b")) is first_index
    chunk.set_encoding("a", EncodingType.DICTIONARY)
    assert chunk.index(("a", "b")) is dictionary_index
    chunk.drop_index(("a", "b"))
    assert chunk.create_index(("a", "b")) is dictionary_index
    stats = chunk.structure_memo_stats()
    # built: dictionary segment, two indexes; the rest were swaps
    assert (stats.misses, stats.hits, stats.invalidations) == (3, 5, 0)
    assert stats.size == 5 + 2

    inverse, _ = chunk.sort_by("b")
    stats = chunk.structure_memo_stats()
    assert stats.invalidations == 7
    assert stats.size == 4 + 1  # reseeded from the live structures only
    chunk.apply_permutation(inverse, None)
    run.model = _data(0)
    _assert_fresh(chunk, run.model)
    assert chunk.index(("a", "b")) is not dictionary_index


def test_a_new_row_order_drops_the_sort_order_of_a_dropped_index():
    """The memo keeps a key's sort order while its index is not live;
    a permutation must drop that order along with the memo, or the next
    index on the key gathers its keys in the old row order."""
    run = _Run(0)
    for op in [
        ("create", ("a", "s")),
        ("drop", ("a", "s")),
        ("sort", "b"),
        ("create", ("a", "s")),
        ("encode", "a", EncodingType.DICTIONARY),
        ("unsort",),
        ("encode", "s", EncodingType.DICTIONARY),
        ("create", ("s",)),
    ]:
        run.step(op)
        _assert_fresh(run.chunk, run.model)


def test_pickle_drops_the_memo_and_keeps_the_chunk():
    run = _Run(2)
    for op in [
        ("create", ("s", "a")),
        ("create", ("a",)),
        ("encode", "a", EncodingType.DICTIONARY),
        ("encode", "s", EncodingType.RUN_LENGTH),
        ("encode", "b", EncodingType.FRAME_OF_REFERENCE),
        ("encode", "a", EncodingType.RUN_LENGTH),
        ("drop", ("a",)),
    ]:
        run.step(op)
    chunk = run.chunk
    assert chunk.structure_memo_stats().size > 4 + 1
    blob = pickle.dumps(chunk)
    clone = pickle.loads(blob)
    assert len(pickle.dumps(clone)) == len(blob)
    _assert_same_chunk(chunk, clone)
    _assert_fresh(clone, run.model)
    cold = clone.structure_memo_stats()
    assert (cold.size, cold.hits, cold.misses) == (4 + 1, 0, 0)
    # the next hypothetical and its undo: built cold, same outcome
    warm = chunk.structure_memo_stats().misses
    for target in (chunk, clone):
        target.set_encoding("a", EncodingType.DICTIONARY)
        target.create_index(("a",))
    _assert_same_chunk(chunk, clone)
    for target in (chunk, clone):
        target.drop_index(("a",))
        target.set_encoding("a", EncodingType.RUN_LENGTH)
    _assert_same_chunk(chunk, clone)
    _assert_fresh(clone, run.model)
    assert clone.structure_memo_stats().misses == 3
    assert chunk.structure_memo_stats().misses == warm


def test_state_written_before_the_memo_existed_still_loads():
    run = _Run(3)
    run.step(("encode", "a", EncodingType.DICTIONARY))
    run.step(("create", ("a", "b")))
    state = run.chunk.__getstate__()
    assert "_memo" not in state
    index_state = dict(run.chunk.index(("a", "b")).__dict__)
    del index_state["_memory_bytes"]
    old_index = SortedCompositeIndex.__new__(SortedCompositeIndex)
    old_index.__setstate__(pickle.loads(pickle.dumps(index_state)))
    state["_indexes"] = {("a", "b"): old_index}
    restored = Chunk.__new__(Chunk)
    restored.__setstate__(state)
    _assert_fresh(restored, run.model)
    restored.set_encoding("a", EncodingType.UNENCODED)
    _assert_fresh(restored, run.model)


def _live_structures(db):
    return [
        structure
        for table in db.catalog.tables()
        for chunk in table.chunks()
        for structure in (
            *chunk.segments().values(),
            *(chunk.index(key) for key in chunk.index_keys()),
        )
    ]


def test_hypothetical_leaves_configuration_epochs_and_identities():
    db = make_small_database(rows=3_000, chunk_size=1_000)
    db.set_encoding("events", "kind", EncodingType.DICTIONARY)
    db.set_encoding("events", "user", EncodingType.RUN_LENGTH, chunk_ids=[1])
    db.create_index("events", ["kind", "user"])
    db.create_index("events", ["id"], chunk_ids=[0, 2])
    delta = ConfigurationDelta(
        [
            SetEncodingAction("events", "user", EncodingType.DICTIONARY),
            SetEncodingAction(
                "events", "kind", EncodingType.UNENCODED, chunk_ids=(0,)
            ),
            DropIndexAction("events", ("id",)),
            CreateIndexAction("events", ("user", "value")),
        ]
    )
    optimizer = WhatIfOptimizer(db)
    for visit in range(2):
        configuration = ConfigurationInstance.capture(db)
        footprint = db.table("events").footprint(("id", "user", "kind"))
        live = _live_structures(db)
        built = db.structure_memo_stats().misses
        with optimizer.hypothetical(delta):
            assert ConfigurationInstance.capture(db) != configuration
            assert (
                db.table("events").footprint(("id", "user", "kind"))
                != footprint
            )
        assert ConfigurationInstance.capture(db) == configuration
        assert db.table("events").footprint(("id", "user", "kind")) == footprint
        after = _live_structures(db)
        assert len(after) == len(live)
        assert all(now is then for now, then in zip(after, live))
        if visit:
            assert db.structure_memo_stats().misses == built
        else:
            assert db.structure_memo_stats().misses > built


def test_second_dependence_measurement_builds_nothing(retail_suite, monkeypatch):
    db = retail_suite.database
    forecast = make_forecast(retail_suite)
    optimizer = WhatIfOptimizer(db)
    analyzer = DependenceAnalyzer(
        [
            Tuner(IndexSelectionFeature(), optimizer),
            Tuner(CompressionFeature(), optimizer),
        ],
        ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
    )
    first = analyzer.measure(forecast)
    assert db.structure_memo_stats().misses > 0

    calls = {"build": 0, "encode": 0}
    real_build = SortedCompositeIndex.build.__func__
    real_encode = chunk_module.encode_segment

    def counting_build(cls, *args):
        calls["build"] += 1
        return real_build(cls, *args)

    def counting_encode(values, data_type, encoding):
        calls["encode"] += 1
        return real_encode(values, data_type, encoding)

    monkeypatch.setattr(
        SortedCompositeIndex, "build", classmethod(counting_build)
    )
    monkeypatch.setattr(chunk_module, "encode_segment", counting_encode)
    second = analyzer.measure(forecast)
    assert calls == {"build": 0, "encode": 0}
    assert second.w_empty == first.w_empty
    assert second.w_single == first.w_single
    assert second.w_pair == first.w_pair


def test_structures_are_read_only():
    data = _data(0)
    chunk = Chunk(0, _SCHEMA, dict(data))
    chunk.create_index(("a", "s"))
    for encoding in EncodingType:
        for column in _COLUMNS:
            if encoding not in supported_encodings(_SCHEMA.data_type(column)):
                continue
            chunk.set_encoding(column, encoding)
            segment = chunk.segment(column)
            owned = [
                value
                for value in vars(segment).values()
                if isinstance(value, np.ndarray)
            ]
            assert owned
            for array in owned:
                with pytest.raises(ValueError):
                    array[0] = array[0]
        chunk.segment("a").values()  # fills the run-length decode cache
        index = chunk.index(("a", "s"))
        for array in (index._positions, *index._sorted_keys, index.lookup(())):
            with pytest.raises(ValueError):
                array[0] = array[0]
    clone = pickle.loads(pickle.dumps(chunk))
    for column in _COLUMNS:
        for value in vars(clone.segment(column)).values():
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[0] = value[0]
    with pytest.raises(ValueError):
        clone.index(("a", "s"))._positions[0] = 0
    # the arrays a chunk was built from stay the caller's
    data["a"][0] = data["a"][0]


def test_database_rolls_chunk_stats_up():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    seeded = db.structure_memo_stats()
    assert (seeded.hits, seeded.misses, seeded.size) == (0, 0, 2 * 4)
    db.create_index("events", ["user"])
    db.drop_index("events", ["user"])
    db.create_index("events", ["user"])
    stats = db.structure_memo_stats()
    assert (stats.hits, stats.misses, stats.size) == (2, 2, 2 * 5)
    assert "structure_memo_hits" not in db.runtime_snapshot()

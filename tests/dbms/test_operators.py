"""Tests for per-chunk plan choice and evaluation."""

import numpy as np
import pytest

from repro.dbms.chunk import Chunk
from repro.dbms.operators import (
    INDEX_SELECTIVITY_CUTOFF,
    AggregateSpec,
    compute_aggregate,
)
from repro.dbms.schema import TableSchema
from repro.dbms.types import DataType
from repro.workload.predicate import Predicate
from tests.reference import chunk_can_be_pruned, choose_index_plan, evaluate_chunk


def _chunk(n=2_000, seed=0):
    schema = TableSchema.build(
        "t",
        [("a", DataType.INT), ("b", DataType.INT), ("c", DataType.STRING)],
    )
    rng = np.random.default_rng(seed)
    return Chunk(
        0,
        schema,
        {
            "a": rng.integers(0, 100, n),
            "b": rng.integers(0, 10, n),
            "c": rng.choice(["p", "q", "r"], n).astype("<U1"),
        },
    )


def test_no_index_no_plan():
    chunk = _chunk()
    assert choose_index_plan(chunk, [Predicate("a", "=", 5)]) is None


def test_selective_equality_uses_index():
    chunk = _chunk()
    chunk.create_index(["a"])
    plan = choose_index_plan(chunk, [Predicate("a", "=", 5)])
    assert plan is not None
    assert plan.equal_values == [5]
    assert plan.residual == []


def test_unselective_range_rejected():
    chunk = _chunk()
    chunk.create_index(["a"])
    plan = choose_index_plan(chunk, [Predicate("a", ">=", 1)])
    assert plan is None  # ~99% selectivity > cutoff


def test_two_sided_range_covered():
    chunk = _chunk()
    chunk.create_index(["a"])
    predicates = [Predicate("a", ">=", 10), Predicate("a", "<=", 12)]
    plan = choose_index_plan(chunk, predicates)
    assert plan is not None
    assert len(plan.range_predicates) == 2
    assert plan.estimated_selectivity <= INDEX_SELECTIVITY_CUTOFF


def test_longest_equality_prefix_wins():
    chunk = _chunk()
    chunk.create_index(["a"])
    chunk.create_index(["a", "b"])
    predicates = [Predicate("a", "=", 5), Predicate("b", "=", 3)]
    plan = choose_index_plan(chunk, predicates)
    assert plan is not None
    assert plan.index.columns == ("a", "b")
    assert plan.residual == []


def test_tied_indexes_are_chosen_by_key_not_by_creation_order():
    # (a, b) and (a, c) tie on every score for a predicate on `a` alone;
    # which one is probed used to follow the chunk's dict order, so a
    # what-if that dropped (a, b) and re-created it on exit — leaving it
    # last — changed the plan of the state it claimed to have restored
    predicates = [Predicate("a", "=", 5)]
    chosen = []
    for order in ((["a", "b"], ["a", "c"]), (["a", "c"], ["a", "b"])):
        chunk = _chunk()
        for columns in order:
            chunk.create_index(columns)
        chosen.append(choose_index_plan(chunk, predicates).index.columns)
        chunk.drop_index(["a", "b"])
        chunk.create_index(["a", "b"])  # the round trip moves it last
        chosen.append(choose_index_plan(chunk, predicates).index.columns)
    assert chosen == [("a", "b")] * 4


def test_evaluate_chunk_scan_equals_index():
    chunk = _chunk()
    predicates = [Predicate("a", "=", 5), Predicate("c", "=", "p")]
    scan_result = evaluate_chunk(chunk, predicates)
    chunk.create_index(["a"])
    index_result = evaluate_chunk(chunk, predicates)
    assert index_result.used_index
    np.testing.assert_array_equal(
        np.sort(scan_result.positions), np.sort(index_result.positions)
    )
    assert index_result.scan_units + index_result.probe_units < (
        scan_result.scan_units
    )


def test_evaluate_chunk_without_predicates_returns_all():
    chunk = _chunk(n=100)
    result = evaluate_chunk(chunk, [])
    assert len(result.positions) == 100
    assert result.scan_units == 0


def test_evaluate_prunes_impossible_predicates_via_statistics():
    chunk = _chunk()
    # a = -1 is outside the chunk's [min, max]: zone-map pruning rejects
    # the whole chunk without evaluating any segment
    result = evaluate_chunk(
        chunk, [Predicate("a", "=", -1), Predicate("b", "=", 3)]
    )
    assert len(result.positions) == 0
    assert result.predicates_evaluated == 0
    assert result.scan_units < 2.0


def test_evaluate_short_circuits_on_empty():
    chunk = _chunk()
    # a = 37 is inside [min, max] but let's force an in-range empty match:
    # use a value that exists for `a` but an impossible survivor for `b`
    # via an in-range string on `c` first
    result = evaluate_chunk(
        chunk, [Predicate("c", "=", "p"), Predicate("c", "=", "q")]
    )
    assert len(result.positions) == 0
    # the second predicate is never evaluated once the mask empties
    assert result.predicates_evaluated <= 2


def test_chunk_pruning_rules():
    chunk = _chunk()  # a in [0, 99]
    assert chunk_can_be_pruned(chunk, [Predicate("a", "=", 1000)])
    assert chunk_can_be_pruned(chunk, [Predicate("a", "<", 0)])
    assert chunk_can_be_pruned(chunk, [Predicate("a", ">", 99)])
    assert chunk_can_be_pruned(chunk, [Predicate("a", ">=", 100)])
    assert not chunk_can_be_pruned(chunk, [Predicate("a", "=", 50)])
    assert not chunk_can_be_pruned(chunk, [Predicate("a", "<=", 0)])
    assert not chunk_can_be_pruned(chunk, [Predicate("a", "!=", 50)])


def test_compute_aggregates():
    values = [np.array([1.0, 2.0]), np.array([3.0])]
    assert compute_aggregate(values, AggregateSpec("count"), 3) == 3.0
    assert compute_aggregate(values, AggregateSpec("sum", "x"), 3) == 6.0
    assert compute_aggregate(values, AggregateSpec("avg", "x"), 3) == 2.0
    assert compute_aggregate(values, AggregateSpec("min", "x"), 3) == 1.0
    assert compute_aggregate(values, AggregateSpec("max", "x"), 3) == 3.0


def test_compute_aggregate_empty_input():
    assert compute_aggregate([], AggregateSpec("sum", "x"), 0) is None
    assert compute_aggregate([], AggregateSpec("count"), 0) == 0.0


def test_compute_aggregate_string_min_max():
    values = [np.array(["b", "a"], dtype="<U1")]
    assert compute_aggregate(values, AggregateSpec("min", "x"), 2) == "a"
    assert compute_aggregate(values, AggregateSpec("max", "x"), 2) == "b"


def test_compute_aggregate_unknown_function():
    with pytest.raises(ValueError):
        compute_aggregate([np.array([1.0])], AggregateSpec("median", "x"), 1)


def test_duplicate_covered_predicate_stays_residual():
    """Residual removal is by occurrence (identity), not by value.

    A query carrying the same predicate twice has one occurrence covered
    by the index probe; the duplicate must remain residual so its scan
    work on the probe result is still accounted. The old value-based
    removal silently dropped both copies.
    """
    chunk = _chunk()
    chunk.create_index(["a"])
    first = Predicate("a", "=", 5)
    duplicate = Predicate("a", "=", 5)
    plan = choose_index_plan(chunk, [first, duplicate])
    assert plan is not None
    assert len(plan.covered) == 1
    assert len(plan.residual) == 1
    assert plan.residual[0] is duplicate


def test_duplicate_range_predicates_keep_extra_occurrences():
    chunk = _chunk()
    chunk.create_index(["a"])
    lower = Predicate("a", ">=", 10)
    upper = Predicate("a", "<=", 12)
    upper_again = Predicate("a", "<=", 12)
    plan = choose_index_plan(chunk, [lower, upper, upper_again])
    assert plan is not None
    assert len(plan.residual) == 1
    assert plan.residual[0] is upper_again

"""Tests for candidate enumerators."""

import pytest

from repro.dbms.knobs import BUFFER_POOL_KNOB
from repro.dbms.segments import EncodingType
from repro.tuning.candidate import (
    EncodingCandidate,
    IndexCandidate,
    KnobCandidate,
    PlacementCandidate,
)
from repro.tuning.enumerators import (
    EncodingEnumerator,
    IndexEnumerator,
    KnobEnumerator,
    PlacementEnumerator,
    RestrictiveEnumerator,
    predicate_column_usage,
    workload_tables,
)



def test_workload_tables(retail_suite, retail_forecast):
    assert workload_tables(retail_forecast) == {"orders", "inventory"}


def test_predicate_column_usage_weights(retail_suite, retail_forecast):
    usage = predicate_column_usage(retail_forecast)
    customer = usage[("orders", "customer")]
    assert customer.eq_frequency > 0
    date = usage[("orders", "order_date")]
    assert date.range_frequency > 0


def test_index_enumerator_produces_singles_and_composites(
    retail_suite, retail_forecast
):
    candidates = IndexEnumerator(max_width=2).candidates(
        retail_suite.database, retail_forecast
    )
    keys = {(c.table, c.columns) for c in candidates}
    assert ("orders", ("customer",)) in keys
    assert ("orders", ("order_date",)) in keys
    # composite from the customer_recent template: customer eq + date range
    assert ("orders", ("customer", "order_date")) in keys
    assert all(isinstance(c, IndexCandidate) for c in candidates)
    assert all(c.chunk_ids is None for c in candidates)


def test_index_enumerator_max_width_one(retail_suite, retail_forecast):
    candidates = IndexEnumerator(max_width=1).candidates(
        retail_suite.database, retail_forecast
    )
    assert all(len(c.columns) == 1 for c in candidates)


def test_index_enumerator_per_chunk(retail_suite, retail_forecast):
    db = retail_suite.database
    per_table = IndexEnumerator().candidates(db, retail_forecast)
    per_chunk = IndexEnumerator(per_chunk=True).candidates(db, retail_forecast)
    assert len(per_chunk) > len(per_table)
    assert all(c.chunk_ids is not None and len(c.chunk_ids) == 1 for c in per_chunk)


def test_index_enumerator_includes_existing_indexes(retail_suite, retail_forecast):
    db = retail_suite.database
    db.create_index("orders", ["priority"])
    candidates = IndexEnumerator().candidates(db, retail_forecast)
    keys = {(c.table, c.columns) for c in candidates}
    assert ("orders", ("priority",)) in keys


def test_encoding_enumerator_groups_cover_all_encodings(
    retail_suite, retail_forecast
):
    candidates = EncodingEnumerator().candidates(
        retail_suite.database, retail_forecast
    )
    assert all(isinstance(c, EncodingCandidate) for c in candidates)
    by_group = {}
    for c in candidates:
        by_group.setdefault(c.group, set()).add(c.encoding)
    # every group contains the UNENCODED reset option
    assert all(EncodingType.UNENCODED in encodings for encodings in by_group.values())
    # integer columns offer frame-of-reference, string columns do not
    customer = [c for c in candidates if c.column == "customer"]
    country = [c for c in candidates if c.column == "country"]
    assert any(c.encoding is EncodingType.FRAME_OF_REFERENCE for c in customer)
    assert not any(c.encoding is EncodingType.FRAME_OF_REFERENCE for c in country)


def test_encoding_enumerator_includes_aggregate_columns(
    retail_suite, retail_forecast
):
    candidates = EncodingEnumerator().candidates(
        retail_suite.database, retail_forecast
    )
    # price is aggregated (SUM/AVG) but never filtered
    assert any(c.column == "price" for c in candidates)


def test_encoding_enumerator_all_columns_mode(
    retail_suite, retail_forecast, monkeypatch
):
    narrow = EncodingEnumerator().candidates(retail_suite.database, retail_forecast)
    monkeypatch.setattr("repro.tuning.enumerators.encoding_enum.ALL_COLUMNS", True)
    wide = EncodingEnumerator().candidates(retail_suite.database, retail_forecast)
    assert len(wide) > len(narrow)


def test_placement_enumerator_covers_every_chunk_and_tier(
    retail_suite, retail_forecast
):
    db = retail_suite.database
    candidates = PlacementEnumerator().candidates(db, retail_forecast)
    assert all(isinstance(c, PlacementCandidate) for c in candidates)
    n_chunks = sum(t.chunk_count for t in db.catalog.tables())
    assert len(candidates) == 3 * n_chunks


def test_knob_enumerator_samples_domain(retail_suite, retail_forecast):
    db = retail_suite.database
    candidates = KnobEnumerator(BUFFER_POOL_KNOB, max_candidates=5).candidates(
        db, retail_forecast
    )
    assert all(isinstance(c, KnobCandidate) for c in candidates)
    values = [c.value for c in candidates]
    assert len(values) <= 7  # 5 samples + default + current
    knob = db.knobs.definition(BUFFER_POOL_KNOB)
    assert knob.default in values
    assert db.knobs.get(BUFFER_POOL_KNOB) in values
    assert all(knob.is_valid(v) for v in values)


def test_knob_enumerator_validation():
    with pytest.raises(ValueError):
        KnobEnumerator("k", max_candidates=1)


def test_restrictive_enumerator_caps_optional_candidates(
    retail_suite, retail_forecast
):
    db = retail_suite.database
    inner = IndexEnumerator(max_width=2)
    full = inner.candidates(db, retail_forecast)
    capped = RestrictiveEnumerator(inner, max_candidates=3).candidates(
        db, retail_forecast
    )
    assert len(capped) == 3 < len(full)
    # the hottest equality column must survive the cut
    assert any(c.columns[0] == "customer" for c in capped)


def test_restrictive_enumerator_preserves_required_groups(
    retail_suite, retail_forecast
):
    db = retail_suite.database
    inner = EncodingEnumerator()
    full = inner.candidates(db, retail_forecast)
    capped = RestrictiveEnumerator(inner, max_candidates=1).candidates(
        db, retail_forecast
    )
    # encoding groups are required: nothing may be dropped
    assert len(capped) == len(full)

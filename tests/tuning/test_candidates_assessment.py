"""Tests for candidates and assessments."""

import pytest

from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier
from repro.tuning.assessment import Assessment
from repro.tuning.candidate import (
    EncodingCandidate,
    IndexCandidate,
    KnobCandidate,
    PlacementCandidate,
)

PROBS = {"expected": 0.7, "worst_case": 0.3}


def test_index_candidate_has_no_group():
    candidate = IndexCandidate("t", ("a", "b"))
    assert candidate.group is None
    assert not candidate.group_required
    assert candidate.feature == "index_selection"
    actions = candidate.actions()
    assert len(actions) == 1
    assert "CREATE INDEX" in actions[0].describe()


def test_encoding_candidates_share_required_group_per_column():
    a = EncodingCandidate("t", "x", EncodingType.DICTIONARY)
    b = EncodingCandidate("t", "x", EncodingType.RUN_LENGTH)
    c = EncodingCandidate("t", "y", EncodingType.DICTIONARY)
    assert a.group == b.group != c.group
    assert a.group_required


def test_placement_candidates_group_per_chunk():
    a = PlacementCandidate("t", 0, StorageTier.DRAM)
    b = PlacementCandidate("t", 0, StorageTier.SSD)
    c = PlacementCandidate("t", 1, StorageTier.SSD)
    assert a.group == b.group != c.group
    assert a.group_required


def test_knob_candidates_group_per_knob():
    a = KnobCandidate("buffer_pool_bytes", 100, "buffer_pool")
    b = KnobCandidate("buffer_pool_bytes", 200, "buffer_pool")
    assert a.group == b.group
    assert a.feature == "buffer_pool"


def _assessment(desirability, **kwargs):
    return Assessment(
        candidate=IndexCandidate("t", ("a",)), desirability=desirability, **kwargs
    )


def test_expected_desirability():
    a = _assessment({"expected": 10.0, "worst_case": 4.0})
    assert a.expected(PROBS) == pytest.approx(0.7 * 10 + 0.3 * 4)


def test_worst_case_and_std():
    a = _assessment({"expected": 10.0, "worst_case": 4.0})
    assert a.worst_case() == 4.0
    assert a.std(PROBS) > 0
    flat = _assessment({"expected": 5.0, "worst_case": 5.0})
    assert flat.std(PROBS) == pytest.approx(0.0)


def test_permanent_cost_defaults_to_zero():
    a = _assessment({"expected": 1.0})
    assert a.permanent_cost("index_memory_bytes") == 0.0
    b = _assessment({"expected": 1.0}, permanent_costs={"x": 5.0})
    assert b.permanent_cost("x") == 5.0


def test_empty_desirability_worst_case():
    assert _assessment({}).worst_case() == 0.0

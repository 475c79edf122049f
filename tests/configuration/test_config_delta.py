"""Tests for configuration instances, actions, and deltas."""

from repro.configuration.actions import (
    CreateIndexAction,
    MoveChunkAction,
    SetEncodingAction,
    SetKnobAction,
)
from repro.configuration.config import ChunkIndexSpec, ConfigurationInstance
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier

from tests.conftest import make_small_database


def test_capture_reflects_state():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    db.create_index("events", ["user"], chunk_ids=[0])
    db.set_encoding("events", "kind", EncodingType.DICTIONARY)
    db.move_chunk("events", 1, StorageTier.NVM)
    instance = ConfigurationInstance.capture(db)
    assert ChunkIndexSpec("events", ("user",), 0) in instance.indexes
    encodings = dict(instance.encodings)
    assert encodings[("events", "kind", 0)] is EncodingType.DICTIONARY
    assert dict(instance.placements)[("events", 1)] is StorageTier.NVM
    assert SCAN_THREADS_KNOB in dict(instance.knobs)
    assert len(instance.indexes) == 1
    assert sum(e is not EncodingType.UNENCODED for e in encodings.values()) == 2
    assert [t for _key, t in instance.placements if t is not StorageTier.DRAM] == [
        StorageTier.NVM
    ]


def test_apply_raw_returns_inverse():
    db = make_small_database(rows=1_000, chunk_size=500)
    before = ConfigurationInstance.capture(db)
    delta = ConfigurationDelta(
        [
            CreateIndexAction("events", ("user",)),
            SetEncodingAction("events", "user", EncodingType.DICTIONARY),
            MoveChunkAction("events", 0, StorageTier.NVM),
        ]
    )
    inverse = delta.apply_raw(db)
    assert not inverse.is_empty
    inverse.apply_raw(db)
    after = ConfigurationInstance.capture(db)
    assert after.indexes == before.indexes
    assert after.encodings == before.encodings
    assert after.placements == before.placements


def test_noop_actions_produce_empty_inverse():
    db = make_small_database(rows=500)
    assert SetEncodingAction("events", "user", EncodingType.UNENCODED).apply_raw(db) == []
    assert MoveChunkAction("events", 0, StorageTier.DRAM).apply_raw(db) == []
    current = db.knobs.get(SCAN_THREADS_KNOB)
    assert SetKnobAction(SCAN_THREADS_KNOB, current).apply_raw(db) == []


def test_estimate_cost_skips_noops():
    db = make_small_database(rows=1_000)
    db.create_index("events", ["user"])
    assert CreateIndexAction("events", ("user",)).estimate_cost_ms(db) == 0.0
    assert (
        SetEncodingAction("events", "user", EncodingType.UNENCODED).estimate_cost_ms(db)
        == 0.0
    )


def test_action_descriptions_are_informative():
    assert "CREATE INDEX" in CreateIndexAction("t", ("a", "b")).describe()
    assert "dictionary" in SetEncodingAction(
        "t", "a", EncodingType.DICTIONARY
    ).describe()
    assert "ssd" in MoveChunkAction("t", 0, StorageTier.SSD).describe()
    assert "= 4" in SetKnobAction("k", 4).describe()


def test_delta_extend_and_describe():
    delta = ConfigurationDelta([CreateIndexAction("t", ("a",))])
    other = ConfigurationDelta([SetKnobAction("k", 1)])
    delta.extend(other)
    assert len(delta) == 2
    assert len(delta.describe()) == 2

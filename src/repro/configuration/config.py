"""Configuration instances: complete snapshots of all configurable entities.

"The configuration of a DBMS is the combination of all of its configurable
entities … A particular configuration is called configuration instance"
(Section II-A.b). An instance records, at chunk granularity, which indexes
exist, which encoding each column segment uses, where each chunk resides,
and every knob value. Instances are captured from a live database.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dbms.database import Database
from repro.dbms.segments import EncodingType
from repro.dbms.storage_tiers import StorageTier


@dataclass(frozen=True)
class ChunkIndexSpec:
    """One index on one chunk."""

    table: str
    columns: tuple[str, ...]
    chunk_id: int


@dataclass(frozen=True)
class ConfigurationInstance:
    """An immutable snapshot of the full configuration."""

    indexes: frozenset[ChunkIndexSpec]
    #: (table, column, chunk_id) → encoding
    encodings: tuple[tuple[tuple[str, str, int], EncodingType], ...]
    #: (table, chunk_id) → tier
    placements: tuple[tuple[tuple[str, int], StorageTier], ...]
    knobs: tuple[tuple[str, float], ...]
    #: (table, chunk_id) → explicit sort column (None = ingest order)
    sort_orders: tuple[tuple[tuple[str, int], str | None], ...] = ()
    captured_at_ms: float = field(default=0.0, compare=False)

    @classmethod
    def capture(cls, db: Database) -> "ConfigurationInstance":
        indexes: set[ChunkIndexSpec] = set()
        encodings: dict[tuple[str, str, int], EncodingType] = {}
        placements: dict[tuple[str, int], StorageTier] = {}
        sort_orders: dict[tuple[str, int], str | None] = {}
        for table in db.catalog.tables():
            for chunk in table.chunks():
                for key in chunk.index_keys():
                    indexes.add(ChunkIndexSpec(table.name, key, chunk.chunk_id))
                for column in table.schema.column_names:
                    encodings[(table.name, column, chunk.chunk_id)] = (
                        chunk.encoding_of(column)
                    )
                placements[(table.name, chunk.chunk_id)] = chunk.tier
                sort_orders[(table.name, chunk.chunk_id)] = chunk.sort_column
        return cls(
            indexes=frozenset(indexes),
            encodings=tuple(sorted(encodings.items())),
            placements=tuple(sorted(placements.items())),
            knobs=tuple(sorted(db.knobs.snapshot().items())),
            sort_orders=tuple(sorted(sort_orders.items())),
            captured_at_ms=db.clock.now_ms,
        )

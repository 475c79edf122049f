"""Configuration instances, deltas, constraints, and the instance store."""

from repro.configuration.actions import (
    Action,
    CreateIndexAction,
    DropIndexAction,
    MoveChunkAction,
    PermuteChunkAction,
    SetEncodingAction,
    SetKnobAction,
    SortChunkAction,
)
from repro.configuration.config import ChunkIndexSpec, ConfigurationInstance
from repro.configuration.constraints import (
    BUFFER_POOL,
    DRAM_BYTES,
    INDEX_MEMORY,
    TOTAL_MEMORY,
    ConstraintScope,
    ConstraintSet,
    ResourceBudget,
    SlaConstraint,
)
from repro.configuration.delta import ConfigurationDelta
from repro.configuration.store import (
    ConfigurationInstanceStorage,
    ConfigurationRecord,
)

__all__ = [
    "Action",
    "BUFFER_POOL",
    "ChunkIndexSpec",
    "ConfigurationDelta",
    "ConfigurationInstance",
    "ConfigurationInstanceStorage",
    "ConfigurationRecord",
    "ConstraintScope",
    "ConstraintSet",
    "CreateIndexAction",
    "DRAM_BYTES",
    "DropIndexAction",
    "INDEX_MEMORY",
    "MoveChunkAction",
    "ResourceBudget",
    "PermuteChunkAction",
    "SetEncodingAction",
    "SetKnobAction",
    "SortChunkAction",
    "SlaConstraint",
    "TOTAL_MEMORY",
]

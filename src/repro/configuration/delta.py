"""Configuration deltas: ordered action lists between two instances.

The delta is the unit the tuning executor applies and the unit whose
one-time cost is the "reconfiguration cost" that Section II-D.b balances
against performance improvements.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.configuration.actions import (
    Action,
    CreateIndexAction,
    DropIndexAction,
    MoveChunkAction,
    SetEncodingAction,
    SetKnobAction,
    SortChunkAction,
)
from repro.configuration.config import ChunkIndexSpec, ConfigurationInstance
from repro.dbms.database import Database


@dataclass
class ConfigurationDelta:
    """An ordered list of configuration actions."""

    actions: list[Action] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.actions

    def __len__(self) -> int:
        return len(self.actions)

    def apply(self, db: Database) -> float:
        """Accounted application; returns the total one-time cost."""
        return sum(action.apply(db) for action in self.actions)

    def apply_raw(self, db: Database) -> "ConfigurationDelta":
        """Unaccounted application; returns the inverse delta (which, when
        itself applied raw, restores the previous configuration).

        Exception-safe: if an action raises mid-delta, the actions already
        applied are undone (via their collected inverses, in reverse) before
        the exception propagates, so a failed delta never leaves the
        database half-mutated.
        """
        inverse: list[Action] = []
        try:
            for action in self.actions:
                inverse.extend(action.apply_raw(db))
        except Exception:
            for undo in reversed(inverse):
                undo.apply_raw(db)
            raise
        inverse.reverse()
        return ConfigurationDelta(inverse)

    def estimate_cost_ms(self, db: Database) -> float:
        return sum(action.estimate_cost_ms(db) for action in self.actions)

    def describe(self) -> list[str]:
        return [action.describe() for action in self.actions]

    def extend(self, other: "ConfigurationDelta") -> None:
        self.actions.extend(other.actions)


def group_index_actions(
    specs: Iterable[ChunkIndexSpec],
    action_cls: type[CreateIndexAction] | type[DropIndexAction],
) -> list[Action]:
    """One action per (table, columns) over per-chunk index specs, in
    sorted order whatever order the specs arrive in."""
    grouped: dict[tuple[str, tuple[str, ...]], list[int]] = {}
    for spec in specs:
        grouped.setdefault((spec.table, spec.columns), []).append(spec.chunk_id)
    return [
        action_cls(table, columns, tuple(sorted(chunk_ids)))
        for (table, columns), chunk_ids in sorted(grouped.items())
    ]


def diff_configurations(
    current: ConfigurationInstance, target: ConfigurationInstance
) -> ConfigurationDelta:
    """Actions transforming ``current`` into ``target``.

    Ordering matters for cost: drops first (free up memory), then sorting
    (so re-encodes and index builds happen on the final row order), then
    encodings (so index builds happen on the final encoding), then index
    creation, then placements, then knobs.

    A target sort order of ``None`` (ingest order) cannot be diffed to: the
    original permutation is not part of a configuration instance, so a
    sorted chunk stays sorted. What-if rollbacks restore exact order via
    the inverse-permutation tokens of ``SortChunkAction.apply_raw``.
    """
    actions: list[Action] = []

    actions.extend(
        group_index_actions(current.indexes - target.indexes, DropIndexAction)
    )

    current_sort = current.sort_order_map()
    grouped_sort: dict[tuple[str, str], list[int]] = {}
    for (table, chunk_id), column in target.sort_orders:
        if column is None:
            continue
        if current_sort.get((table, chunk_id)) != column:
            grouped_sort.setdefault((table, column), []).append(chunk_id)
    for (table, column), chunk_ids in sorted(grouped_sort.items()):
        actions.append(
            SortChunkAction(table, column, tuple(sorted(chunk_ids)))
        )

    current_enc = current.encoding_map()
    grouped_enc: dict[tuple[str, str, object], list[int]] = {}
    for (table, column, chunk_id), encoding in target.encodings:
        if current_enc.get((table, column, chunk_id)) is not encoding:
            grouped_enc.setdefault((table, column, encoding), []).append(chunk_id)
    for (table, column, encoding), chunk_ids in sorted(
        grouped_enc.items(), key=str
    ):
        actions.append(
            SetEncodingAction(table, column, encoding, tuple(sorted(chunk_ids)))
        )

    actions.extend(
        group_index_actions(target.indexes - current.indexes, CreateIndexAction)
    )

    current_place = current.placement_map()
    for (table, chunk_id), tier in target.placements:
        if current_place.get((table, chunk_id)) is not tier:
            actions.append(MoveChunkAction(table, chunk_id, tier))

    current_knobs = current.knob_map()
    for name, value in target.knobs:
        if current_knobs.get(name) != value:
            actions.append(SetKnobAction(name, value))

    return ConfigurationDelta(actions)

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
)
from repro.configuration.config import ChunkIndexSpec
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

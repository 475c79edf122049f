"""Constraints: DBMS-specified budgets/SLAs and hardware resource limits.

Section II-A.c distinguishes two constraint scopes — DBMS-related (SLAs,
index memory budgets, limits set by cloud management software) and hardware
resources — and resolves conflicts in favour of the hardware: "available
hardware resources overwrite externally specified ones."
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from repro.dbms.hardware import HardwareProfile
from repro.dbms.storage_tiers import StorageTier
from repro.errors import ConstraintError

#: Resource names used across tuners and selectors.
INDEX_MEMORY = "index_memory_bytes"
DRAM_BYTES = "dram_bytes"
TOTAL_MEMORY = "total_memory_bytes"
BUFFER_POOL = "buffer_pool_bytes"


class ConstraintScope(enum.Enum):
    DBMS = "dbms"
    HARDWARE = "hardware"


@dataclass(frozen=True)
class ResourceBudget:
    """An upper limit on one resource, set by one scope."""

    resource: str
    limit: float
    scope: ConstraintScope = ConstraintScope.DBMS

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ConstraintError(
                f"budget for {self.resource!r} must be non-negative"
            )


@dataclass(frozen=True)
class SlaConstraint:
    """A service-level agreement on a runtime KPI (upper bound)."""

    metric: str
    threshold: float
    #: consecutive violating samples before the SLA counts as breached
    patience: int = 1

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ConstraintError("patience must be at least 1")


class ConstraintSet:
    """Merged budgets and SLAs with hardware-over-DBMS conflict resolution."""

    def __init__(
        self,
        budgets: Iterable[ResourceBudget] = (),
        slas: Iterable[SlaConstraint] = (),
    ) -> None:
        self._dbms: dict[str, float] = {}
        self._hardware: dict[str, float] = {}
        self._slas: list[SlaConstraint] = list(slas)
        for budget in budgets:
            self.add_budget(budget)

    def add_budget(self, budget: ResourceBudget) -> None:
        store = (
            self._hardware
            if budget.scope is ConstraintScope.HARDWARE
            else self._dbms
        )
        store[budget.resource] = budget.limit

    @property
    def slas(self) -> tuple[SlaConstraint, ...]:
        return tuple(self._slas)

    def effective_budget(self, resource: str) -> float | None:
        """The binding limit: the hardware value when both scopes specify
        the resource, per the paper's conflict rule."""
        if resource in self._hardware:
            return self._hardware[resource]
        return self._dbms.get(resource)

    def with_hardware(self, hardware: HardwareProfile) -> "ConstraintSet":
        """A copy with the hardware profile's physical limits added."""
        merged = ConstraintSet(slas=self._slas)
        merged._dbms = dict(self._dbms)
        merged._hardware = dict(self._hardware)
        merged._hardware.setdefault(
            DRAM_BYTES, float(hardware.tier_capacity_bytes(StorageTier.DRAM))
        )
        merged._hardware.setdefault(
            TOTAL_MEMORY,
            float(
                sum(hardware.tier_capacity_bytes(t) for t in StorageTier)
            ),
        )
        return merged

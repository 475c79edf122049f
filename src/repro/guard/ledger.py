"""The commit ledger: retained rollback material for committed passes.

PR 3's executors already produce the inverse actions of everything they
apply — but a *successful* pass used to discard them. The ledger keeps
them instead, for the duration of a probation window: a commit that
turns out to regress runtime KPIs can then be rolled back through the
exact same recovery path a failed application uses.

At most one commit is on probation at a time. Inverse actions only
compose with the configuration state they were recorded against, so a
newer commit landing on top *supersedes* the older probation entry (its
rollback material is discarded and it graduates early, recorded as
:attr:`CommitResolution.SUPERSEDED`) rather than stacking unsoundly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.configuration.actions import Action


class CommitResolution(enum.Enum):
    """How a probation commit left the ledger."""

    #: the probation window elapsed without a confirmed regression
    PASSED = "passed"
    #: a confirmed KPI regression rolled the commit back
    ROLLED_BACK = "rolled_back"
    #: a newer commit landed before the window elapsed
    SUPERSEDED = "superseded"


@dataclass
class ProbationCommit:
    """One committed tuning pass under guard."""

    commit_id: int
    committed_at_ms: float
    #: features that contributed applied actions to the commit
    features: tuple[str, ...]
    #: inverse actions in application order (rollback applies them LIFO)
    inverse_actions: tuple[Action, ...]
    #: pre-commit KPI baseline (mean of the guarded metric)
    baseline_ms: float
    #: busy samples the baseline was computed over
    baseline_sample_count: int
    #: configuration-store record of the commit, when one was appended
    record_id: int | None = None
    resolution: CommitResolution | None = None
    resolved_at_ms: float | None = None

    @property
    def active(self) -> bool:
        return self.resolution is None


class CommitLedger:
    """Holds the active probation commit plus the resolution history."""

    def __init__(self, history_size: int = 64, tenant: str = "") -> None:
        """``tenant`` labels the ledger in a fleet ('' for single-tenant).
        Each tenant's guard owns its own ledger — probation state and
        commit ids are strictly per tenant; the fleet arbiter counts
        concurrent reconfigurations by asking every ledger, never by
        sharing one."""
        if history_size < 1:
            raise ValueError("history_size must be at least 1")
        self._history_size = history_size
        self._tenant = tenant
        self._active: ProbationCommit | None = None
        self._resolved: list[ProbationCommit] = []
        self._next_id = 1

    @property
    def tenant(self) -> str:
        """Tenant this ledger belongs to ('' for single-tenant)."""
        return self._tenant

    @property
    def active(self) -> ProbationCommit | None:
        return self._active

    def history(self) -> tuple[ProbationCommit, ...]:
        return tuple(self._resolved)

    def __len__(self) -> int:
        return len(self._resolved) + (1 if self._active is not None else 0)

    def open(
        self,
        now_ms: float,
        *,
        features: tuple[str, ...],
        inverse_actions: tuple[Action, ...],
        baseline_ms: float,
        baseline_sample_count: int,
        record_id: int | None = None,
    ) -> tuple[ProbationCommit, ProbationCommit | None]:
        """Open probation for a fresh commit.

        Returns ``(opened, superseded)`` where ``superseded`` is the
        previously active commit this one displaced (now resolved), or
        ``None``.
        """
        superseded = None
        if self._active is not None:
            superseded = self.resolve(CommitResolution.SUPERSEDED, now_ms)
        commit = ProbationCommit(
            commit_id=self._next_id,
            committed_at_ms=now_ms,
            features=features,
            inverse_actions=inverse_actions,
            baseline_ms=baseline_ms,
            baseline_sample_count=baseline_sample_count,
            record_id=record_id,
        )
        self._next_id += 1
        self._active = commit
        return commit, superseded

    def resolve(
        self, resolution: CommitResolution, now_ms: float
    ) -> ProbationCommit:
        """Resolve the active commit; returns it."""
        if self._active is None:
            raise ValueError("no commit is on probation")
        commit = self._active
        commit.resolution = resolution
        commit.resolved_at_ms = now_ms
        # rollback material is only meaningful while on probation
        if resolution is not CommitResolution.ROLLED_BACK:
            commit.inverse_actions = ()
        self._active = None
        self._resolved.append(commit)
        if len(self._resolved) > self._history_size:
            del self._resolved[: len(self._resolved) - self._history_size]
        return commit

    def snapshot(self) -> list[dict[str, object]]:
        """Ledger view for logs and the CLI, oldest first."""
        entries = [*self._resolved]
        if self._active is not None:
            entries.append(self._active)
        return [
            {
                "commit_id": c.commit_id,
                "committed_at_ms": c.committed_at_ms,
                "features": list(c.features),
                "inverse_actions": len(c.inverse_actions),
                "baseline_ms": c.baseline_ms,
                "resolution": (
                    c.resolution.value if c.resolution else "on_probation"
                ),
                "resolved_at_ms": c.resolved_at_ms,
            }
            for c in entries
        ]

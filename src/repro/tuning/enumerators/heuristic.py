"""Restrictive enumeration: cap a candidate set by a cheap heuristic score.

"Some enumeration algorithms restrict the candidate set based on heuristics
while others consider all available candidates. The framework allows to
switch between different enumerators or fall back to restrictive
enumerators when necessary" (Section II-D.a). The wrapper scores candidates
without any cost estimation — pure frequency/size arithmetic — and keeps
the top ``max_candidates``, never dropping members of required groups.
"""

from __future__ import annotations

from repro.dbms.database import Database
from repro.forecasting.scenarios import Forecast
from repro.tuning.candidate import Candidate, IndexCandidate
from repro.tuning.enumerators.base import (
    Enumerator,
    predicate_column_usage,
)


def frequency_score(candidate: Candidate, forecast: Forecast) -> float:
    """The heuristic: expected predicate frequency hitting the candidate.

    Index candidates score the usage of their leading column (equality use
    weighted double — that is what a sorted index serves best). Non-index
    candidates score neutrally, since their groups are preserved anyway.
    """
    if isinstance(candidate, IndexCandidate):
        usage = predicate_column_usage(forecast)
        slot = usage.get((candidate.table, candidate.columns[0]))
        if slot is None:
            return 0.0
        return 2.0 * slot.eq_frequency + slot.range_frequency
    return 0.0


class RestrictiveEnumerator(Enumerator):
    """Wraps another enumerator and keeps only the best-scoring candidates."""

    def __init__(self, inner: Enumerator, max_candidates: int) -> None:
        if max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")
        self._inner = inner
        self._max_candidates = max_candidates

    def candidates(self, db: Database, forecast: Forecast) -> list[Candidate]:
        all_candidates = self._inner.candidates(db, forecast)
        required = [c for c in all_candidates if c.group_required]
        optional = [c for c in all_candidates if not c.group_required]
        if len(optional) <= self._max_candidates:
            return required + optional
        scored = sorted(
            optional,
            key=lambda c: frequency_score(c, forecast),
            reverse=True,
        )
        return required + scored[: self._max_candidates]

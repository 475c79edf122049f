"""A deliberately wrong assessor: the guard's adversary.

Wraps any real assessor and distorts its desirabilities by a scale
factor. With a negative scale the assessor inverts its own judgement —
harmful candidates look attractive and vice versa — modelling a badly
miscalibrated cost model whose pass *applies cleanly* but regresses
runtime KPIs. Fault injection cannot produce this failure mode (it
breaks applications, not judgement); the commit guard exists for
exactly this case, and the guard tests use this wrapper to provoke it
deterministically.
"""

from __future__ import annotations

from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.errors import TuningError
from repro.forecasting.scenarios import Forecast
from repro.tuning.assessment import Assessment
from repro.tuning.assessors.base import Assessor
from repro.tuning.candidate import Candidate


class MiscalibratedAssessor(Assessor):
    """Scales (or, with ``scale < 0``, inverts) another assessor's verdicts."""

    def __init__(self, inner: Assessor, scale: float = -1.0) -> None:
        if scale == 0:
            raise TuningError(
                "scale must be nonzero (0 would erase all desirability)"
            )
        self._inner = inner
        self._scale = scale
        self.supports_reassessment = inner.supports_reassessment

    @property
    def inner(self) -> Assessor:
        return self._inner

    @property
    def scale(self) -> float:
        return self._scale

    def assess(
        self,
        candidates: list[Candidate],
        db: Database,
        forecast: Forecast,
        reset_delta: ConfigurationDelta | None = None,
    ) -> list[Assessment]:
        assessments = self._inner.assess(
            candidates, db, forecast, reset_delta=reset_delta
        )
        for assessment in assessments:
            assessment.desirability = {
                name: value * self._scale
                for name, value in assessment.desirability.items()
            }
        return assessments

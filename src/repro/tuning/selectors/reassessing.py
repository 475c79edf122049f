"""Greedy selection with interaction-aware re-assessment.

"Selectors can also request re-assessments of certain candidates from the
assessors. This is useful to reflect changed circumstances or incorporate
interaction between candidates" (Section II-D.c).

Plain selectors score candidates by assessments taken against the feature's
reset baseline, so two overlapping candidates (e.g. an index on ``(a)`` and
one on ``(a, b)``) are both credited with the full benefit of serving the
same queries. This selector picks one candidate at a time and, after each
pick, asks the assessor to re-assess the remaining candidates *with the
chosen ones hypothetically applied* — the classic greedy algorithm of
index-selection tools, expressed through the framework's re-assessment
hook.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.forecasting.scenarios import Forecast
from repro.tuning.assessment import Assessment
from repro.tuning.assessors.base import Assessor
from repro.tuning.selectors.base import ScoreFn, Selector, fits


class ReassessingGreedySelector(Selector):
    """One-at-a-time greedy with re-assessment after every pick.

    Requires the construction context (assessor, database, forecast, and
    the feature's reset delta) because re-assessment replays the assessment
    machinery, so it is built per forecast and handed to the
    :class:`~repro.tuning.tuner.Tuner` as its selector, as the ablation
    bench ``benchmarks/bench_a2_reassessment.py`` does.

    Only ungrouped (optional) candidates are supported — re-assessment
    semantics for required exclusion groups (encodings, placements) would
    need per-group baselines; those features gain little from it because
    their candidates do not overlap.
    """

    name = "greedy-reassess"

    def __init__(
        self,
        assessor: Assessor,
        db: Database,
        forecast: Forecast,
        reset_delta: ConfigurationDelta | None = None,
    ) -> None:
        if not assessor.supports_reassessment:
            raise ValueError(
                f"assessor {type(assessor).__name__} does not support "
                "re-assessment"
            )
        self._assessor = assessor
        self._db = db
        self._forecast = forecast
        self._reset_delta = reset_delta or ConfigurationDelta([])

    def select(
        self,
        assessments: list[Assessment],
        budgets: Mapping[str, float],
        score: ScoreFn,
    ) -> list[Assessment]:
        if any(a.candidate.group_required for a in assessments):
            raise ValueError(
                "ReassessingGreedySelector does not support required "
                "exclusion groups; use it for index selection"
            )
        remaining = list(assessments)
        chosen: list[Assessment] = []
        chosen_actions: list = []
        usage = dict.fromkeys(budgets, 0.0)

        while remaining:
            best = max(remaining, key=score)
            if score(best) <= 0:
                break
            if not fits(best, usage, budgets):
                remaining.remove(best)
                continue
            chosen.append(best)
            for r in usage:
                usage[r] += best.permanent_cost(r)
            chosen_actions.extend(best.candidate.actions())
            remaining = [a for a in remaining if a is not best]
            if not remaining:
                break
            # re-assess the survivors with reset + chosen applied, so
            # overlap with already-chosen candidates is priced away
            context = ConfigurationDelta(
                list(self._reset_delta.actions) + list(chosen_actions)
            )
            remaining = self._assessor.assess(
                [a.candidate for a in remaining],
                self._db,
                self._forecast,
                context,
            )
        return chosen

"""Robust and risk-averse selection.

"Selectors that act risk-averse are a good choice for scenarios in which
stable performance in most cases is preferred over best performance in the
expected case (cf. CliffGuard [22]). Criteria based on mean-variance
optimization, utility functions, value at risk, and worst-case
considerations can be used" (Section II-D.c). Three of the four are
implemented: worst case, mean-variance and value at risk.

Implemented as a criterion wrapper: the selector's ``desirability`` hook
collapses the per-candidate scenario desirabilities by a risk criterion
into one robust value, the tuner charges the one-time cost against it as
for every selector, and any base selector (greedy, optimal, genetic)
performs the combinatorial search under that score.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.tuning.assessment import Assessment
from repro.tuning.selectors.base import ScoreFn, Selector

WORST_CASE = "worst_case"
MEAN_VARIANCE = "mean_variance"
VALUE_AT_RISK = "value_at_risk"

CRITERIA = (WORST_CASE, MEAN_VARIANCE, VALUE_AT_RISK)


def value_at_risk(
    desirability: Mapping[str, float],
    probabilities: Mapping[str, float],
    alpha: float,
) -> float:
    """The α-quantile of the desirability distribution (lower tail).

    With α = 0.05 this is the benefit the candidate delivers in all but the
    worst 5% of scenario mass — the classic VaR reading.
    """
    outcomes = sorted(
        (value, probabilities.get(name, 0.0))
        for name, value in desirability.items()
    )
    cumulative = 0.0
    for value, probability in outcomes:
        cumulative += probability
        if cumulative >= alpha - 1e-12:
            return value
    return outcomes[-1][0] if outcomes else 0.0


class RobustSelector(Selector):
    """Risk-criterion scoring on top of a base selector."""

    name = "robust"

    def __init__(
        self,
        base: Selector,
        criterion: str = WORST_CASE,
        risk_aversion: float = 1.0,
        alpha: float = 0.1,
    ) -> None:
        if criterion not in CRITERIA:
            raise ValueError(
                f"unknown robustness criterion {criterion!r}; "
                f"expected one of {CRITERIA}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._base = base
        self._criterion = criterion
        self._risk_aversion = risk_aversion
        self._alpha = alpha
        self.name = f"robust-{criterion}"

    def desirability(self, probabilities: Mapping[str, float]) -> ScoreFn:
        """The risk criterion collapsing a candidate's per-scenario
        desirabilities into one robust value."""

        def core(a: Assessment) -> float:
            if self._criterion == WORST_CASE:
                return a.worst_case()
            if self._criterion == MEAN_VARIANCE:
                return a.expected(probabilities) - self._risk_aversion * a.std(
                    probabilities
                )
            return value_at_risk(a.desirability, probabilities, self._alpha)

        return core

    def select(
        self,
        assessments: list[Assessment],
        budgets: Mapping[str, float],
        score: ScoreFn,
    ) -> list[Assessment]:
        return self._base.select(assessments, budgets, score)

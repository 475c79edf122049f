"""Feature tuner interface.

"There is one tuner instance per feature, e.g., a tuner for index selection
and another tuner for determining efficient partitioning schemes"
(Section II-D). A :class:`FeatureTuner` encapsulates everything that is
specific to one feature:

- the default enumerator/assessor/selector (all exchangeable per run);
- the *reset delta*: the feature-clean slate against which candidates are
  assessed (selection-from-scratch semantics);
- how a set of chosen candidates maps back onto a concrete
  :class:`~repro.configuration.delta.ConfigurationDelta` from the current
  state;
- which resource budgets bind the selection, expressed *relative to the
  reset baseline* so selectors and assessors agree on accounting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

from repro.configuration.constraints import ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.forecasting.scenarios import Forecast
from repro.tuning.assessors.base import Assessor
from repro.tuning.assessors.cost_model import CostModelAssessor
from repro.tuning.candidate import Candidate
from repro.tuning.enumerators.base import Enumerator
from repro.tuning.selectors.base import Selector
from repro.tuning.selectors.greedy import GreedySelector


class FeatureTuner(ABC):
    """Feature-specific behaviour of the generic tuning pipeline."""

    name: ClassVar[str] = "feature"

    @abstractmethod
    def make_enumerator(self) -> Enumerator:
        """The feature's default candidate enumerator."""

    def make_assessor(self, optimizer: WhatIfOptimizer) -> Assessor:
        """Default assessor: measured what-if cost estimation through the
        stack's one ``optimizer``, so every feature, the dependence
        campaign and the organizer share its cost cache."""
        return CostModelAssessor(optimizer)

    def make_selector(self) -> Selector:
        """Default selector: greedy (short runtime, good quality)."""
        return GreedySelector()

    @abstractmethod
    def reset_delta(self, db: Database, forecast: Forecast) -> ConfigurationDelta:
        """Actions that clear this feature on the workload's tables."""

    @abstractmethod
    def delta_for_choices(
        self,
        db: Database,
        chosen: list[Candidate],
        forecast: Forecast,
    ) -> ConfigurationDelta:
        """Delta from the *current* configuration to the chosen selection."""

    def budgets(
        self, db: Database, constraints: ConstraintSet, forecast: Forecast
    ) -> dict[str, float]:
        """Budgets binding this feature's selection, relative to the reset
        baseline. Default: none."""
        del db, constraints, forecast
        return {}

"""The buffer-pool-size feature tuner (a continuous knob).

Demonstrates the paper's range-candidate form: the knob definition carries
``[start, end]`` and the smallest interval; the enumerator samples values;
a specialised assessor measures each capacity on a warmed scratch pool —
only when a chunk the forecast reads is off DRAM. Otherwise every
desirability is exactly 0.0 and nothing is replayed.
"""

from __future__ import annotations

from repro.configuration.constraints import DRAM_BYTES, ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.dbms.knobs import BUFFER_POOL_KNOB
from repro.dbms.storage_tiers import StorageTier
from repro.forecasting.scenarios import Forecast
from repro.tuning.assessors.base import Assessor
from repro.tuning.assessors.buffer_pool import BufferPoolAssessor
from repro.tuning.candidate import Candidate, KnobCandidate
from repro.tuning.enumerators.knob_enum import KnobEnumerator
from repro.tuning.features.base import FeatureTuner

#: capacities sampled from the buffer-pool knob's stepped range
MAX_CANDIDATES = 7


class BufferPoolFeature(FeatureTuner):
    """Chooses the buffer-pool capacity from its stepped range."""

    name = "buffer_pool"

    def make_enumerator(self) -> KnobEnumerator:
        return KnobEnumerator(
            BUFFER_POOL_KNOB,
            max_candidates=MAX_CANDIDATES,
            feature_name=self.name,
        )

    def make_assessor(self, optimizer: WhatIfOptimizer) -> Assessor:
        # scratch-pool measurement does no what-if pricing; a shared
        # optimizer (and its cost cache) has nothing to offer here
        del optimizer
        return BufferPoolAssessor()

    def reset_delta(self, db: Database, forecast: Forecast) -> ConfigurationDelta:
        # The buffer-pool assessor measures against the knob default on a
        # scratch pool; no state needs clearing on the real database.
        del db, forecast
        return ConfigurationDelta([])

    def delta_for_choices(
        self,
        db: Database,
        chosen: list[Candidate],
        forecast: Forecast,
    ) -> ConfigurationDelta:
        del forecast
        actions = []
        for candidate in chosen:
            if not isinstance(candidate, KnobCandidate):
                continue
            if db.knobs.get(candidate.name) != candidate.value:
                actions.extend(candidate.actions())
        return ConfigurationDelta(actions)

    def budgets(
        self, db: Database, constraints: ConstraintSet, forecast: Forecast
    ) -> dict[str, float]:
        del forecast
        limit = constraints.effective_budget(DRAM_BYTES)
        if limit is None:
            return {}
        # The buffer-pool assessor reports the *absolute* capacity as the
        # DRAM cost, so the budget is the headroom next to chunk data.
        chunk_dram = float(db.tier_usage()[StorageTier.DRAM])
        return {DRAM_BYTES: limit - chunk_dram}

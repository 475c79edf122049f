"""Adaptive learned cost model.

"The proposed cost models can be created adaptively by learning from
observed query execution costs. At database system start, a minimal set of
queries is run to create training data … during further database operation
more data points are collected, thus enabling more specialized models"
(Section II-A.d). This model extracts a feature vector per query from the
current physical configuration, observes real execution times, and refits a
linear regression (the paper's own baseline choice [13]) on demand.
"""

from __future__ import annotations

import numpy as np

from repro.cost.base import CostEstimator
from repro.dbms.database import Database
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.dbms.storage_tiers import TIER_LATENCY_MULTIPLIER
from repro.plan.ir import StepKind
from repro.errors import CalibrationError
from repro.workload.query import Query

#: Minimum observations a fit needs.
MIN_OBSERVATIONS = 8
#: Training-set bound; past it the oldest quarter is dropped.
MAX_OBSERVATIONS = 4096


class LearnedCostModel(CostEstimator):
    """Linear regression on configuration-aware query features."""

    name = "learned"

    #: feature names, in vector order (useful for inspection/tests)
    FEATURE_NAMES = (
        "bias",
        "rows_total",
        "rows_scanned_est",
        "rows_matched_est",
        "eq_predicates",
        "range_predicates",
        "index_chunk_fraction",
        "mean_tier_multiplier",
        "inverse_threads",
        "is_aggregate",
    )

    def __init__(self, database: Database) -> None:
        self._db = database
        self._features: list[np.ndarray] = []
        self._targets: list[float] = []
        self._coefficients: np.ndarray | None = None

    # ------------------------------------------------------------------
    # feature extraction

    def features(self, query: Query) -> np.ndarray:
        db = self._db
        table = db.table(query.table)
        rows = float(table.row_count)
        live = rows
        scanned = 0.0
        for pred in query.predicates:
            scanned += live
            live *= table.statistics(pred.column).selectivity(
                pred.op, pred.value
            )
        if not query.predicates:
            scanned = rows
        chunks = table.chunks()
        # the compiled plan (shared with the executor and the physical
        # model) already knows which chunks go through an index probe
        plan = db.planner.plan_for(query, table)
        indexed = plan.count(StepKind.INDEX_PROBE)
        tier_mult = (
            float(
                np.mean([TIER_LATENCY_MULTIPLIER[c.tier] for c in chunks])
            )
            if chunks
            else 1.0
        )
        threads = float(db.knobs.get(SCAN_THREADS_KNOB))
        n_eq = sum(1 for p in query.predicates if p.op == "=")
        return np.array(
            [
                1.0,
                rows / 1e6,
                scanned / 1e6,
                live / 1e6,
                float(n_eq),
                float(len(query.predicates) - n_eq),
                indexed / max(len(chunks), 1),
                tier_mult,
                1.0 / threads,
                1.0 if query.aggregate else 0.0,
            ]
        )

    # ------------------------------------------------------------------
    # learning

    @property
    def is_fitted(self) -> bool:
        return self._coefficients is not None

    def observe(self, query: Query, elapsed_ms: float) -> None:
        """Record one observed execution; whoever feeds the model calls
        :meth:`refit` once it has fed them."""
        self._features.append(self.features(query))
        self._targets.append(float(elapsed_ms))
        if len(self._targets) > MAX_OBSERVATIONS:
            del self._features[: MAX_OBSERVATIONS // 4]
            del self._targets[: MAX_OBSERVATIONS // 4]

    def refit(self) -> None:
        if len(self._targets) < MIN_OBSERVATIONS:
            raise CalibrationError(
                f"need at least {MIN_OBSERVATIONS} observations, have "
                f"{len(self._targets)}"
            )
        design = np.vstack(self._features)
        target = np.array(self._targets)
        coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
        self._coefficients = coefficients

    def estimate_query_ms(self, query: Query) -> float:
        if self._coefficients is None:
            raise CalibrationError(
                "learned model has not been fitted; run calibration first"
            )
        estimate = float(self.features(query) @ self._coefficients)
        return max(estimate, self._db.hardware.overhead_ms())

"""Cost estimators: logical, physical, learned, and the what-if optimizer."""

from repro.cost.base import CostEstimator
from repro.cost.calibration import (
    calibration_queries,
    run_design_exploration,
    run_startup_calibration,
)
from repro.cost.learned import LearnedCostModel
from repro.cost.logical import LogicalCostModel
from repro.cost.physical import PhysicalCostModel
from repro.cost.what_if import WhatIfOptimizer

__all__ = [
    "CostEstimator",
    "LearnedCostModel",
    "LogicalCostModel",
    "PhysicalCostModel",
    "WhatIfOptimizer",
    "calibration_queries",
    "run_design_exploration",
    "run_startup_calibration",
]

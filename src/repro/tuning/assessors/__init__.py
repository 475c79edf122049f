"""Assessors: cost-model based, buffer-pool specific, follow-up anticipating."""

from repro.tuning.assessors.base import Assessor
from repro.tuning.assessors.buffer_pool import BufferPoolAssessor
from repro.tuning.assessors.cost_model import CostModelAssessor
from repro.tuning.assessors.sort_benefit import SortBenefitAssessor

__all__ = [
    "Assessor",
    "BufferPoolAssessor",
    "CostModelAssessor",
    "SortBenefitAssessor",
]

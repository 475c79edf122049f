"""The Tuner component: candidates, assessment, and the pipeline stages."""

from repro.tuning.assessment import Assessment
from repro.tuning.assessors import (
    Assessor,
    BufferPoolAssessor,
    CostModelAssessor,
)
from repro.tuning.candidate import (
    Candidate,
    EncodingCandidate,
    IndexCandidate,
    KnobCandidate,
    PlacementCandidate,
    SortOrderCandidate,
)
from repro.tuning.enumerators import (
    EncodingEnumerator,
    Enumerator,
    IndexEnumerator,
    KnobEnumerator,
    PlacementEnumerator,
    RestrictiveEnumerator,
    SortOrderEnumerator,
)
from repro.tuning.executors import (
    ApplicationReport,
    SequentialExecutor,
)
from repro.tuning.features import (
    BufferPoolFeature,
    CompressionFeature,
    DataPlacementFeature,
    FeatureTuner,
    IndexSelectionFeature,
    SortOrderFeature,
    standard_features,
)
from repro.tuning.selectors import (
    GeneticSelector,
    GreedySelector,
    OptimalSelector,
    ReassessingGreedySelector,
    RobustSelector,
    Selector,
)
from repro.tuning.tuner import Tuner, TuningResult

__all__ = [
    "ApplicationReport",
    "Assessment",
    "Assessor",
    "BufferPoolAssessor",
    "BufferPoolFeature",
    "Candidate",
    "CompressionFeature",
    "CostModelAssessor",
    "DataPlacementFeature",
    "EncodingCandidate",
    "EncodingEnumerator",
    "Enumerator",
    "FeatureTuner",
    "GeneticSelector",
    "GreedySelector",
    "IndexCandidate",
    "IndexEnumerator",
    "IndexSelectionFeature",
    "KnobCandidate",
    "KnobEnumerator",
    "OptimalSelector",
    "PlacementCandidate",
    "PlacementEnumerator",
    "ReassessingGreedySelector",
    "RestrictiveEnumerator",
    "RobustSelector",
    "Selector",
    "SequentialExecutor",
    "SortOrderCandidate",
    "SortOrderEnumerator",
    "SortOrderFeature",
    "Tuner",
    "TuningResult",
]

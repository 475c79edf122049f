"""Cost estimator interface.

"Cost estimation must be involved at every stage of the tuning process …
cost must be estimated in the same unit, for instance, runtime"
(Section II-A.d). Every estimator in this package prices one query in
simulated milliseconds under the database's *current* configuration; the
what-if optimizer wraps estimators to price hypothetical configurations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.workload.query import Query


class CostEstimator(ABC):
    """Prices a query under the current configuration."""

    #: short identifier for reports
    name: str = "estimator"

    @abstractmethod
    def estimate_query_ms(self, query: Query) -> float:
        """Estimated runtime of one execution of ``query``."""

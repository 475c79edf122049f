"""Query families and workload mixes.

A :class:`QueryFamily` is a template-shaped query generator: every sample
has the same logical shape (table, predicate signature, aggregate) but
freshly drawn literals. Plan-cache aggregation, forecasting, and tuning all
operate on the template level, so a family corresponds 1:1 to the unit the
framework reasons about.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import derive_rng
from repro.workload.query import Query


@dataclass
class QueryFamily:
    """A generator of same-shaped queries with randomized literals."""

    name: str
    sampler: Callable[[np.random.Generator], Query]
    _template_key: str | None = field(default=None, init=False, repr=False)

    def sample(self, rng: np.random.Generator) -> Query:
        query = self.sampler(rng)
        return Query(
            table=query.table,
            predicates=query.predicates,
            projection=query.projection,
            aggregate=query.aggregate,
            aggregate_column=query.aggregate_column,
            tag=self.name,
        )

    @property
    def template_key(self) -> str:
        """The plan-cache key shared by all samples of this family.

        Computed once from a throwaway sample; families must be shape-stable
        (asserted in tests via repeated sampling).
        """
        if self._template_key is None:
            probe = self.sampler(np.random.default_rng(0))
            self._template_key = probe.template().key
        return self._template_key


class WorkloadMix:
    """A weighted set of query families."""

    def __init__(
        self,
        families: Sequence[QueryFamily],
        weights: Mapping[str, float] | None = None,
    ) -> None:
        if not families:
            raise ValueError("a workload mix needs at least one family")
        names = [f.name for f in families]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate family names: {names}")
        self._families = {f.name: f for f in families}
        if weights is None:
            weights = {name: 1.0 for name in names}
        unknown = set(weights) - set(names)
        if unknown:
            raise ValueError(f"weights for unknown families: {sorted(unknown)}")
        self._weights = {name: float(weights.get(name, 0.0)) for name in names}
        total = sum(self._weights.values())
        if total <= 0:
            raise ValueError("workload mix weights must sum to a positive value")

    @property
    def families(self) -> dict[str, QueryFamily]:
        return dict(self._families)

    @property
    def weights(self) -> dict[str, float]:
        return dict(self._weights)

    def family(self, name: str) -> QueryFamily:
        return self._families[name]

    def sample_queries(self, count: int, seed: int) -> list[Query]:
        """Draw ``count`` queries according to the family weights."""
        rng = derive_rng(seed, "workload-mix")
        names = list(self._families)
        probabilities = np.array([self._weights[n] for n in names], dtype=float)
        probabilities /= probabilities.sum()
        picks = rng.choice(len(names), size=count, p=probabilities)
        return [self._families[names[i]].sample(rng) for i in picks]

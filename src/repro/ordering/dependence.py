"""Dependence measurement between tuning features (Section III-A).

The quantities the paper defines:

- ``W_∅`` — cost of the expected workload *without any optimization*;
- ``W_A`` — cost after a tuning run for single feature A;
- ``W_{A,B}`` — cost after tuning A first, then B (B's tuning sees the
  state A left behind — that is where dependence comes from);
- ``d_{A,B} = W_{B,A} / W_{A,B}`` — the dependence ratio: values > 1 mean
  "tune A before B", ≈ 1 means the order barely matters;
- impact ratios ``W_∅ / W_A`` and tuning costs for the impact-per-cost
  ranking used when resources do not suffice to tune everything.

All measurement happens in a what-if sandbox on top of the all-features
reset baseline, so "without any optimization" is taken literally and the
database is bit-identical afterwards. The dependencies are *determined
automatically* — no manual specification as in Zilio et al. [23].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configuration.constraints import ConstraintSet
from repro.configuration.delta import ConfigurationDelta
from repro.errors import OrderingError
from repro.forecasting.scenarios import Forecast
from repro.tuning.tuner import Tuner

#: Stand-in ratio when one ordering drives the pair cost to zero: the
#: true ratio would be infinite (or 1/∞), so a large finite value keeps
#: the LP bounded while preserving reciprocity d(a,b) · d(b,a) = 1.
MAX_DEPENDENCE_RATIO = 1e6


@dataclass(frozen=True)
class DependenceMatrix:
    """Measured workload costs for single and pairwise feature tunings."""

    features: tuple[str, ...]
    w_empty: float
    #: feature → W_A
    w_single: dict[str, float] = field(default_factory=dict)
    #: (A, B) → W_{A,B}, cost after tuning A then B
    w_pair: dict[tuple[str, str], float] = field(default_factory=dict)
    #: feature → one-time cost of its single tuning run
    tuning_cost_ms: dict[str, float] = field(default_factory=dict)

    def d(self, a: str, b: str) -> float:
        """Dependence ratio d_{A,B} = W_{B,A} / W_{A,B} (>1 ⇒ A first).

        Degenerate pair costs keep the ratio consistent and reciprocal
        (d(a,b) · d(b,a) = 1 always): when both orderings drive the cost
        to zero, the order is indifferent (1); when only ``A, B`` does,
        tuning A first is maximally preferable
        (:data:`MAX_DEPENDENCE_RATIO`); when only ``B, A`` does, the
        reverse (its reciprocal).
        """
        w_ab = self.w_pair[(a, b)]
        w_ba = self.w_pair[(b, a)]
        if w_ab <= 0 and w_ba <= 0:
            return 1.0
        if w_ab <= 0:
            return MAX_DEPENDENCE_RATIO
        if w_ba <= 0:
            return 1.0 / MAX_DEPENDENCE_RATIO
        return w_ba / w_ab

    def impact(self, a: str) -> float:
        """Impact ratio W_∅ / W_A of tuning feature A alone; 1 when the
        workload cost vanishes (nothing to improve)."""
        if self.w_single[a] <= 0:
            return 1.0
        return self.w_empty / self.w_single[a]

    def objective_coefficient(self, a: str, b: str) -> float:
        """The LP objective weight of y_{A,B}: d_{A,B} · W_∅ / W_{A,B}.

        Aligned with :meth:`d` in the degenerate cases: zero when both
        pair costs vanish (no gain to order for), and the capped ratio
        itself when only ``W_{A,B}`` does (the ``W_∅ / W_{A,B}`` factor
        would diverge the same way, so the cap absorbs it).
        """
        w_ab = self.w_pair[(a, b)]
        w_ba = self.w_pair[(b, a)]
        if w_ab <= 0 and w_ba <= 0:
            return 0.0
        if w_ab <= 0:
            return MAX_DEPENDENCE_RATIO
        return self.d(a, b) * self.w_empty / w_ab

    def ordered_pairs(self) -> list[tuple[str, str]]:
        return [
            (a, b)
            for a in self.features
            for b in self.features
            if a != b
        ]


def ordering_objective(matrix: DependenceMatrix, order: tuple[str, ...]) -> float:
    """Section III-B objective value of a concrete permutation: the sum of
    coefficients of all pairs (A, B) where A precedes B in ``order``."""
    if sorted(order) != sorted(matrix.features):
        raise OrderingError(
            f"order {order} is not a permutation of {matrix.features}"
        )
    position = {name: i for i, name in enumerate(order)}
    return sum(
        matrix.objective_coefficient(a, b)
        for a, b in matrix.ordered_pairs()
        if position[a] < position[b]
    )


class DependenceAnalyzer:
    """Measures W_∅, W_A, W_{A,B} via sandboxed tuning runs.

    The tuners carry the database and the one what-if optimizer every W
    and every assessment prices through; tuners that do not share one
    are refused."""

    def __init__(
        self,
        tuners: list[Tuner],
        constraints: ConstraintSet | None = None,
    ) -> None:
        if not tuners:
            raise OrderingError("at least one tuner is required")
        names = [t.feature_name for t in tuners]
        if len(set(names)) != len(names):
            raise OrderingError(f"duplicate feature names: {names}")
        optimizer = tuners[0].optimizer
        if any(t.optimizer is not optimizer for t in tuners):
            raise OrderingError(
                "the tuners price through more than one what-if "
                "optimizer: a tuning stack shares one"
            )
        self._tuners = {t.feature_name: t for t in tuners}
        self._constraints = constraints or ConstraintSet()
        self._optimizer = optimizer

    def _full_reset(self, forecast: Forecast) -> ConfigurationDelta:
        reset = ConfigurationDelta([])
        for tuner in self._tuners.values():
            reset.extend(
                tuner.feature.reset_delta(self._optimizer.database, forecast)
            )
        return reset

    def _expected_cost(self, forecast: Forecast) -> float:
        return self._optimizer.scenario_cost_ms(
            forecast.expected, dict(forecast.sample_queries)
        )

    def _propose(self, name: str, forecast: Forecast):
        """Propose one feature's tuning against the current (sandboxed)
        state; returns the tuning result (nothing is applied)."""
        return self._tuners[name].propose(forecast, self._constraints)

    def measure(
        self, forecast: Forecast, max_templates: int | None = None
    ) -> DependenceMatrix:
        """Run the full single + pairwise measurement campaign.

        Each first stage A is proposed once against the reset baseline
        and its hypothetical entered once: ``W_A`` is priced there and
        every B ≠ A is proposed on top of it. Sandboxing goes through
        ``optimizer.hypothetical``, which rolls back exactly; the cost
        cache keys on what a query reads, so a delta that leaves a
        query's columns alone finds the costs priced before.

        A first stage whose delta is empty runs no pair proposal:
        ``W_{A,B} = W_B``. Under an empty delta the state is the reset
        baseline, and :meth:`Tuner.propose` is a pure function of the
        state, the forecast and the constraints, so B's proposal there is
        B's single proposal, priced in the same state. Every single stage
        is therefore proposed and priced before those pairs are filled
        in, which makes the campaign |S|² − e·(|S| − 1) tuning runs for e
        empty single-stage deltas. ``w_single`` and ``w_pair`` keep the
        insertion order of the full campaign (sorted A, then sorted B).

        ``max_templates`` caps the workload the measurement runs see —
        the paper's workload-reduction lever for keeping dependence
        measurement affordable on large workloads (Section III-A).
        """
        if len(self._tuners) < 2:
            raise OrderingError("dependence needs at least two features")
        if max_templates is not None:
            from repro.forecasting.scenarios import reduce_templates

            forecast = reduce_templates(forecast, max_templates)
        names = tuple(sorted(self._tuners))
        w_single: dict[str, float] = {}
        measured_pairs: dict[tuple[str, str], float] = {}
        tuning_cost: dict[str, float] = {}
        empty_first_stages: set[str] = set()

        reset = self._full_reset(forecast)
        with self._optimizer.hypothetical(reset):
            w_empty = self._expected_cost(forecast)
            for a in names:
                result_a = self._propose(a, forecast)
                tuning_cost[a] = result_a.reconfiguration_cost_ms
                with self._optimizer.hypothetical(result_a.delta):
                    w_single[a] = self._expected_cost(forecast)
                    if result_a.is_noop:
                        empty_first_stages.add(a)
                        continue
                    for b in names:
                        if b == a:
                            continue
                        result_b = self._propose(b, forecast)
                        with self._optimizer.hypothetical(result_b.delta):
                            measured_pairs[(a, b)] = self._expected_cost(
                                forecast
                            )

        w_pair = {
            (a, b): (
                w_single[b] if a in empty_first_stages else measured_pairs[(a, b)]
            )
            for a in names
            for b in names
            if a != b
        }
        return DependenceMatrix(
            features=names,
            w_empty=w_empty,
            w_single=w_single,
            w_pair=w_pair,
            tuning_cost_ms=tuning_cost,
        )

"""Declarative tuning objectives: what the system should *achieve*.

The reactive triggers of :mod:`repro.core.triggers` answer "should we
tune now?"; objectives answer "is the system meeting its goals, and
would a candidate plan meet them?". Every objective therefore has two
faces over the same :class:`~repro.core.triggers.TriggerContext`:

- :meth:`Objective.evaluate` judges the *observed* state (monitor KPIs,
  memory accounting) — this is the generalized trigger condition the
  :class:`~repro.policy.engine.ObjectiveViolationTrigger` fires on;
- :meth:`Objective.predict` judges a candidate plan's *predicted* state
  (:class:`PlanMetrics`, priced by the batched what-if oracle) — this is
  what the policy engine ranks plan alternatives with.

Reactive triggers embed unchanged as degenerate objectives through
:class:`TriggerObjective`: the violation test is the trigger firing, and
any plan discharges it — exactly the pre-policy semantics, which is why
the trigger-only path needs no policy engine at all.

An objective is its own declaration: a frozen, picklable dataclass that
refuses a bad bound, weight or metric with :class:`PolicyError` when it
is constructed. A :class:`Policy` holds the objectives, and it is what
the CLI and :class:`~repro.core.driver.DriverConfig` carry and fleet
process workers ship. :meth:`Policy.from_dict` / :meth:`Policy.from_yaml`
read the declaration grammar (one mapping per objective):

.. code-block:: yaml

    name: latency-slo
    objectives:
      - kind: latency          # p99 (default) or mean latency bound
        metric: p99_query_ms   # or mean_query_ms
        max_ms: 1.5
        weight: 2.0
      - kind: memory           # index (default) or total memory budget
        max_mib: 64            # or max_bytes
      - kind: throughput
        min_qps: 100
    window_bins: 3             # observation window for latency/qps KPIs
    violation_patience: 2      # consecutive violated evaluations to fire
    max_alternatives: 6        # plan-prefix alternatives to price
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, Mapping

from repro.core.triggers import TriggerContext, TuningTrigger
from repro.errors import PolicyError
from repro.kpi.metrics import (
    INDEX_MEMORY_BYTES,
    MEAN_QUERY_MS,
    MEMORY_BYTES,
    P99_QUERY_MS,
    THROUGHPUT_QPS,
)
from repro.util.units import MIB


def slugify(name: str) -> str:
    """A metric-key-safe slug of an objective name."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_") or "objective"


def _number(value: object, key: str, cast: type = float):
    """``value`` as a ``cast``, or a :class:`PolicyError` naming ``key``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise PolicyError(f"{key} must be a number, got {value!r}") from None


@dataclass(frozen=True)
class ObjectiveStatus:
    """One objective's verdict at one instant (observed or predicted)."""

    name: str
    metric: str
    value: float
    target: float
    satisfied: bool
    #: signed headroom as a fraction of the target (>= 0 iff satisfied)
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class PlanMetrics:
    """What the what-if oracle predicts a plan alternative would do.

    ``expected_cost_ms``/``baseline_cost_ms`` are probability-weighted
    workload costs over the forecast scenarios (batched what-if pricing
    under :meth:`~repro.cost.what_if.WhatIfOptimizer.hypothetical`);
    memory numbers are exact hypothetical accounting. Rate-style KPIs
    (latency percentiles, throughput) are predicted by scaling the
    observed KPI with :attr:`cost_ratio` — a documented approximation:
    per-query cost drives both in the closed loop.
    """

    expected_cost_ms: float
    baseline_cost_ms: float
    scenario_costs: dict[str, float] = field(default_factory=dict)
    memory_bytes: float = 0.0
    index_bytes: float = 0.0
    reconfiguration_ms: float = 0.0

    @property
    def cost_ratio(self) -> float:
        """Predicted workload cost relative to today's (1.0 = unchanged)."""
        if self.baseline_cost_ms <= 0:
            return 1.0
        return self.expected_cost_ms / self.baseline_cost_ms


@dataclass(frozen=True, kw_only=True)
class Objective(ABC):
    """One declarative goal with a weight for composite scoring.

    A subclass is a frozen dataclass whose fields are the declaration; it
    provides ``metric`` and checks its own fields in ``__post_init__``,
    then calls this one, which checks the weight and keys the slug.
    """

    #: what a policy document calls this objective (``kind:``)
    kind: ClassVar[str] = "objective"

    #: the declared name ('' = keyed by the metric)
    name: str = ""
    weight: float = 1.0
    #: the key this objective's statuses (and so the trigger details and
    #: POLICY event data) carry: the declared name, else the metric
    slug: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._require_positive("weight", self.weight)
        object.__setattr__(self, "slug", slugify(self.name or self.metric))

    def _refuse(self, problem: str) -> PolicyError:
        return PolicyError(f"objective {self.name or self.kind!r}: {problem}")

    def _require_positive(self, key: str, value: float) -> None:
        if not (math.isfinite(value) and value > 0):
            raise self._refuse(f"{key} must be positive, got {value}")

    def _require_window(self, window_bins: int) -> None:
        if window_bins < 1:
            raise self._refuse("window_bins must be at least 1")

    def _canonical_metric(self, aliases: Mapping[str, str]) -> None:
        """Resolve ``metric`` through ``aliases``, or refuse it."""
        metric = aliases.get(self.metric)
        if metric is None:
            allowed = " or ".join(sorted(set(aliases.values())))
            raise self._refuse(
                f"{self.kind} metric must be {allowed}, got {self.metric!r}"
            )
        object.__setattr__(self, "metric", metric)

    @abstractmethod
    def evaluate(self, context: TriggerContext) -> ObjectiveStatus:
        """Judge the *observed* system state."""

    @abstractmethod
    def predict(
        self, metrics: PlanMetrics, context: TriggerContext
    ) -> ObjectiveStatus:
        """Judge the *predicted* state under a candidate plan."""

    def _status(
        self, metric: str, value: float, target: float, upper: bool,
        detail: str = "",
    ) -> ObjectiveStatus:
        if upper:
            margin = (target - value) / target if target > 0 else 0.0
        else:
            margin = (value - target) / target if target > 0 else 0.0
        return ObjectiveStatus(
            name=self.slug,
            metric=metric,
            value=value,
            target=target,
            satisfied=margin >= 0.0,
            margin=margin,
            detail=detail
            or f"{metric} {value:.4g} vs {'max' if upper else 'min'} "
            f"{target:.4g}",
        )


@dataclass(frozen=True)
class LatencyObjective(Objective):
    """Keep a latency KPI (mean or p99) under a bound, in ms."""

    kind: ClassVar[str] = "latency"
    #: accepted ``metric`` spellings, by canonical KPI
    ALIASES: ClassVar[dict[str, str]] = {
        "p99": P99_QUERY_MS,
        P99_QUERY_MS: P99_QUERY_MS,
        "mean": MEAN_QUERY_MS,
        MEAN_QUERY_MS: MEAN_QUERY_MS,
    }

    bound_ms: float
    metric: str = P99_QUERY_MS
    window_bins: int = 3

    def __post_init__(self) -> None:
        self._require_positive("bound_ms", self.bound_ms)
        self._canonical_metric(self.ALIASES)
        self._require_window(self.window_bins)
        super().__post_init__()

    @classmethod
    def _declared(cls, data: dict, window_bins: int) -> dict[str, object]:
        return {
            "bound_ms": _number(data.pop("max_ms", 0.0), "max_ms"),
            "metric": str(data.pop("metric", "") or P99_QUERY_MS),
            "window_bins": window_bins,
        }

    def _observed(self, context: TriggerContext) -> float:
        return context.monitor.mean(self.metric, self.window_bins)

    def evaluate(self, context: TriggerContext) -> ObjectiveStatus:
        return self._status(
            self.metric, self._observed(context), self.bound_ms, upper=True
        )

    def predict(
        self, metrics: PlanMetrics, context: TriggerContext
    ) -> ObjectiveStatus:
        predicted = self._observed(context) * metrics.cost_ratio
        return self._status(
            self.metric,
            predicted,
            self.bound_ms,
            upper=True,
            detail=f"predicted {self.metric} {predicted:.4g} ms "
            f"(observed scaled by cost ratio {metrics.cost_ratio:.3f})",
        )


@dataclass(frozen=True)
class MemoryBudgetObjective(Objective):
    """Keep memory (index or total) under a byte budget — priced exactly."""

    kind: ClassVar[str] = "memory"
    #: accepted ``metric`` spellings, by canonical KPI
    ALIASES: ClassVar[dict[str, str]] = {
        "index": INDEX_MEMORY_BYTES,
        INDEX_MEMORY_BYTES: INDEX_MEMORY_BYTES,
        "total": MEMORY_BYTES,
        MEMORY_BYTES: MEMORY_BYTES,
    }

    bound_bytes: float
    metric: str = INDEX_MEMORY_BYTES

    def __post_init__(self) -> None:
        self._require_positive("bound_bytes", self.bound_bytes)
        self._canonical_metric(self.ALIASES)
        super().__post_init__()

    @classmethod
    def _declared(cls, data: dict, window_bins: int) -> dict[str, object]:
        del window_bins  # judged on the latest sample
        if "max_bytes" in data:
            bound = _number(data.pop("max_bytes"), "max_bytes")
        else:
            bound = _number(data.pop("max_mib", 0.0), "max_mib") * MIB
        return {
            "bound_bytes": bound,
            "metric": str(data.pop("metric", "") or INDEX_MEMORY_BYTES),
        }

    def evaluate(self, context: TriggerContext) -> ObjectiveStatus:
        latest = context.monitor.latest
        value = latest.get(self.metric) if latest is not None else 0.0
        return self._status(self.metric, value, self.bound_bytes, upper=True)

    def predict(
        self, metrics: PlanMetrics, context: TriggerContext
    ) -> ObjectiveStatus:
        del context
        value = (
            metrics.index_bytes
            if self.metric == INDEX_MEMORY_BYTES
            else metrics.memory_bytes
        )
        return self._status(
            self.metric,
            value,
            self.bound_bytes,
            upper=True,
            detail=f"hypothetical {self.metric} {value:.0f} bytes",
        )


@dataclass(frozen=True)
class ThroughputObjective(Objective):
    """Keep throughput at or above a queries-per-second floor."""

    kind: ClassVar[str] = "throughput"
    metric: ClassVar[str] = THROUGHPUT_QPS

    min_qps: float
    window_bins: int = 3

    def __post_init__(self) -> None:
        self._require_positive("min_qps", self.min_qps)
        self._require_window(self.window_bins)
        super().__post_init__()

    @classmethod
    def _declared(cls, data: dict, window_bins: int) -> dict[str, object]:
        return {
            "min_qps": _number(data.pop("min_qps", 0.0), "min_qps"),
            "window_bins": window_bins,
        }

    def _observed(self, context: TriggerContext) -> float:
        return context.monitor.mean(self.metric, self.window_bins)

    def _no_evidence(self, value: float) -> ObjectiveStatus:
        # a cold monitor reads 0 qps; that is "no evidence", not a breach
        return ObjectiveStatus(
            name=self.slug,
            metric=self.metric,
            value=value,
            target=self.min_qps,
            satisfied=True,
            margin=0.0,
            detail="no throughput observed yet",
        )

    def evaluate(self, context: TriggerContext) -> ObjectiveStatus:
        observed = self._observed(context)
        if observed <= 0:
            return self._no_evidence(observed)
        return self._status(self.metric, observed, self.min_qps, upper=False)

    def predict(
        self, metrics: PlanMetrics, context: TriggerContext
    ) -> ObjectiveStatus:
        observed = self._observed(context)
        ratio = metrics.cost_ratio
        predicted = observed / ratio if ratio > 0 else observed
        if observed <= 0:
            return self._no_evidence(predicted)
        return self._status(
            self.metric,
            predicted,
            self.min_qps,
            upper=False,
            detail=f"predicted {predicted:.4g} qps "
            f"(observed scaled by 1/cost ratio {ratio:.3f})",
        )


@dataclass(frozen=True)
class TriggerObjective(Objective):
    """A reactive trigger embedded as a degenerate objective.

    Violated exactly when the wrapped trigger fires; any plan discharges
    it (a trigger carries no predictive model), so a policy made only of
    trigger objectives reproduces the reactive semantics: fire → tune.
    """

    kind: ClassVar[str] = "trigger"

    trigger: TuningTrigger
    #: keyed by the trigger, never declared
    name: str = field(default="", init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "slug", slugify(f"trigger_{self.trigger.name}")
        )

    @property
    def metric(self) -> str:
        return self.trigger.name

    def evaluate(self, context: TriggerContext) -> ObjectiveStatus:
        decision = self.trigger.evaluate(context)
        return ObjectiveStatus(
            name=self.slug,
            metric=self.metric,
            value=1.0 if decision.should_tune else 0.0,
            target=0.0,
            satisfied=not decision.should_tune,
            margin=-1.0 if decision.should_tune else 1.0,
            detail=decision.reason,
        )

    def predict(
        self, metrics: PlanMetrics, context: TriggerContext
    ) -> ObjectiveStatus:
        del metrics, context
        return ObjectiveStatus(
            name=self.slug,
            metric=self.metric,
            value=0.0,
            target=0.0,
            satisfied=True,
            margin=0.0,
            detail="degenerate objective: any plan discharges it",
        )


#: the objectives a policy document declares, by ``kind:``
_DECLARABLE: dict[str, type[Objective]] = {
    cls.kind: cls
    for cls in (LatencyObjective, MemoryBudgetObjective, ThroughputObjective)
}


def _declared_objective(raw: object, window_bins: int) -> Objective:
    """One ``objectives:`` entry of a policy document, constructed."""
    if not isinstance(raw, Mapping):
        raise PolicyError(f"an objective must be a mapping, got {raw!r}")
    data = dict(raw)
    kind = str(data.pop("kind", ""))
    declared = _DECLARABLE.get(kind)
    if declared is None:
        raise PolicyError(
            f"unknown objective kind {kind!r} (expected one of "
            f"{', '.join(_DECLARABLE)})"
        )
    name = str(data.pop("name", ""))
    weight = _number(data.pop("weight", 1.0), "weight")
    fields = declared._declared(data, window_bins)
    if data:
        raise PolicyError(
            f"objective {name or kind!r}: unknown keys "
            f"{sorted(data, key=str)} in spec"
        )
    return declared(name=name, weight=weight, **fields)


@dataclass(frozen=True)
class PolicyAssessment:
    """All objectives' verdicts at one instant, plus the composite score."""

    statuses: tuple[ObjectiveStatus, ...]
    #: weighted sum of margins (the composite the engine maximizes)
    score: float

    @property
    def satisfied(self) -> bool:
        return all(s.satisfied for s in self.statuses)

    @property
    def violated(self) -> tuple[ObjectiveStatus, ...]:
        """Violated statuses, worst (most negative margin) first."""
        return tuple(
            sorted(
                (s for s in self.statuses if not s.satisfied),
                key=lambda s: s.margin,
            )
        )

    def details(self) -> dict[str, float]:
        """Flat float payload for TriggerDecision.details / event data."""
        out: dict[str, float] = {}
        for status in self.statuses:
            out[f"{status.name}_value"] = status.value
            out[f"{status.name}_margin"] = status.margin
        out["policy_score"] = self.score
        return out


@dataclass(frozen=True)
class Policy:
    """A named weighted composite of objectives, and how to act on it.

    Built from objective instances or read from the grammar in the module
    docstring; either way every check has run when the constructor
    returns, so a bad declaration fails where it is written — never when
    a driver attaches.
    """

    objectives: tuple[Objective, ...]
    name: str = "policy"
    #: consecutive violated evaluations before the objective trigger fires
    violation_patience: int = 2
    #: how many plan-prefix alternatives the engine prices per pass
    max_alternatives: int = 6

    def __post_init__(self) -> None:
        if not self.objectives:
            raise PolicyError("a policy needs at least one objective")
        if self.violation_patience < 1:
            raise PolicyError("violation_patience must be at least 1")
        if self.max_alternatives < 1:
            raise PolicyError("max_alternatives must be at least 1")

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "Policy":
        """Read a policy declaration (the module docstring's grammar)."""
        if not isinstance(raw, Mapping):
            raise PolicyError(
                "a policy must be a mapping with an 'objectives' list"
            )
        data = dict(raw)
        entries = data.pop("objectives", None)
        if not isinstance(entries, (list, tuple)) or not entries:
            raise PolicyError(
                "policy config needs a non-empty 'objectives' list"
            )
        window_bins = _number(data.pop("window_bins", 3), "window_bins", int)
        if window_bins < 1:
            raise PolicyError("window_bins must be at least 1")
        name = str(data.pop("name", "policy"))
        patience = data.pop("violation_patience", 2)
        alternatives = data.pop("max_alternatives", 6)
        if data:
            raise PolicyError(
                f"unknown policy config keys {sorted(data, key=str)}"
            )
        return cls(
            objectives=tuple(
                _declared_objective(entry, window_bins) for entry in entries
            ),
            name=name,
            violation_patience=_number(patience, "violation_patience", int),
            max_alternatives=_number(alternatives, "max_alternatives", int),
        )

    @classmethod
    def from_yaml(cls, text: str) -> "Policy":
        """Read a YAML policy document (requires PyYAML)."""
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - baked into the image
            raise PolicyError(
                "PyYAML is required to parse YAML policies; "
                "pass a dict to Policy.from_dict instead"
            ) from exc
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            # one line: the CLI reports a bad document as an option error
            raise PolicyError(
                "not a YAML document: " + " ".join(str(exc).split())
            ) from None
        return cls.from_dict(raw)

    @classmethod
    def from_yaml_file(cls, path: str) -> "Policy":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_yaml(handle.read())

    def _compose(
        self, statuses: tuple[ObjectiveStatus, ...]
    ) -> PolicyAssessment:
        score = sum(
            o.weight * s.margin for o, s in zip(self.objectives, statuses)
        )
        return PolicyAssessment(statuses=statuses, score=score)

    def assess(self, context: TriggerContext) -> PolicyAssessment:
        """Judge the observed state against every objective."""
        return self._compose(
            tuple(o.evaluate(context) for o in self.objectives)
        )

    def predict(
        self, metrics: PlanMetrics, context: TriggerContext
    ) -> PolicyAssessment:
        """Judge a candidate plan's predicted state."""
        return self._compose(
            tuple(o.predict(metrics, context) for o in self.objectives)
        )

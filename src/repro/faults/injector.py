"""Deterministic, seeded fault injection for the tuning loop.

The self-managing loop must survive its *own* reconfiguration actions
failing: a half-applied tuning pass is strictly worse than no pass at
all. The :class:`FaultInjector` makes that failure mode testable on
every run by rolling seeded dice in front of each action application.
Faults come in two classes:

- **transient** — lock timeouts, resource spikes; worth retrying with
  backoff (:func:`~repro.faults.recovery.backoff_ms`);
- **permanent** — out of memory, corrupted structure; the surrounding
  pass must be rolled back and the feature may be quarantined
  (:class:`~repro.faults.quarantine.FeatureQuarantine`).

Determinism: all draws flow through one generator seeded via
:func:`repro.util.rng.derive_rng`, so the same seed and the same call
sequence produce the same fault schedule — experiments with faults are
as reproducible as experiments without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ActionError
from repro.kpi.metrics import (
    FAULTS_INJECTED,
    FAULTS_PERMANENT,
    FAULTS_TRANSIENT,
)
from repro.telemetry.metrics import MetricRegistry
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    from repro.configuration.actions import Action


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault injector (the ``faults`` CLI sets all three)."""

    #: seed of the injector's private random stream
    seed: int = 0
    #: probability that one action application fails
    failure_rate: float = 0.0
    #: fraction of injected failures that are transient (retryable)
    transient_fraction: float = 0.75

    def __post_init__(self) -> None:
        _check_rate("failure_rate", self.failure_rate)
        _check_rate("transient_fraction", self.transient_fraction)


class FaultInjector:
    """Rolls seeded dice in front of action applications.

    The failure-aware tuning executor calls :meth:`before_apply` once
    per application attempt. Counters for every injected fault live in
    the given telemetry registry (the driver passes its shared one),
    split by fault class.
    """

    def __init__(
        self,
        config: FaultConfig | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.config = config or FaultConfig()
        self._rng = derive_rng(self.config.seed, "fault-injector")
        registry = registry if registry is not None else MetricRegistry()
        self._registry = registry
        self._injected = registry.counter(FAULTS_INJECTED)
        self._transient = registry.counter(FAULTS_TRANSIENT)
        self._permanent = registry.counter(FAULTS_PERMANENT)

    @property
    def registry(self) -> MetricRegistry:
        return self._registry

    def before_apply(self, action: "Action") -> None:
        """Gate one application attempt of ``action``.

        Raises :class:`~repro.errors.ActionError` when the attempt
        fails. Retried attempts roll again, so a transient fault can
        clear.
        """
        rate = self.config.failure_rate
        if rate > 0.0 and self._rng.random() < rate:
            transient = self._rng.random() < self.config.transient_fraction
            self._injected.inc()
            (self._transient if transient else self._permanent).inc()
            fault_class = "transient" if transient else "permanent"
            raise ActionError(
                f"injected {fault_class} fault applying {action.describe()}",
                action=action.describe(),
                transient=transient,
            )

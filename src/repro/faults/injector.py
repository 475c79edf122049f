"""Deterministic, seeded fault injection for the tuning loop.

The self-managing loop must survive its *own* reconfiguration actions
failing: a half-applied tuning pass is strictly worse than no pass at
all. The :class:`FaultInjector` makes that failure mode testable on
every run by rolling seeded dice in front of each action application
(and, optionally, perturbing what-if probe measurements with latency
spikes). Faults come in two classes:

- **transient** — lock timeouts, resource spikes; worth retrying with
  backoff (:class:`~repro.faults.recovery.RetryPolicy`);
- **permanent** — out of memory, corrupted structure; the surrounding
  pass must be rolled back and the feature may be quarantined
  (:class:`~repro.faults.quarantine.FeatureQuarantine`).

Determinism: all draws flow through one generator seeded via
:func:`repro.util.rng.derive_rng`, so the same seed and the same call
sequence produce the same fault schedule — experiments with faults are
as reproducible as experiments without them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ActionError
from repro.kpi.metrics import (
    FAULT_LATENCY_SPIKES,
    FAULT_PROBE_SPIKES,
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
    """Knobs of the fault injector.

    ``per_action_failure_rate`` overrides ``failure_rate`` per action
    class, keyed by the class name (e.g. ``"CreateIndexAction"``), so
    experiments can make index builds flaky while knob flips stay safe.
    """

    #: seed of the injector's private random stream
    seed: int = 0
    #: probability that one action application fails
    failure_rate: float = 0.0
    #: action class name → failure probability override
    per_action_failure_rate: Mapping[str, float] = field(default_factory=dict)
    #: fraction of injected failures that are transient (retryable)
    transient_fraction: float = 0.75
    #: probability that a surviving application takes a latency spike
    latency_spike_rate: float = 0.0
    #: extra simulated milliseconds added by one application spike
    latency_spike_ms: float = 250.0
    #: probability that one what-if probe measurement takes a spike
    probe_spike_rate: float = 0.0
    #: extra simulated milliseconds added to one spiked probe cost
    probe_spike_ms: float = 5.0

    def __post_init__(self) -> None:
        _check_rate("failure_rate", self.failure_rate)
        _check_rate("transient_fraction", self.transient_fraction)
        _check_rate("latency_spike_rate", self.latency_spike_rate)
        _check_rate("probe_spike_rate", self.probe_spike_rate)
        for name, rate in self.per_action_failure_rate.items():
            _check_rate(f"per_action_failure_rate[{name!r}]", rate)
        if self.latency_spike_ms < 0 or self.probe_spike_ms < 0:
            raise ValueError("spike durations must be non-negative")


class FaultInjector:
    """Rolls seeded dice in front of action applications and probes.

    The failure-aware tuning executors call :meth:`before_apply` once
    per application attempt; the what-if optimizer calls
    :meth:`probe_spike_ms` once per measured probe. Counters for every
    injected fault live in the given telemetry registry (the driver
    passes its shared one), split by fault class.
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
        self._spikes = registry.counter(FAULT_LATENCY_SPIKES)
        self._probe_spikes = registry.counter(FAULT_PROBE_SPIKES)

    @property
    def registry(self) -> MetricRegistry:
        return self._registry

    def _failure_rate_for(self, action: "Action") -> float:
        return self.config.per_action_failure_rate.get(
            type(action).__name__, self.config.failure_rate
        )

    def before_apply(self, action: "Action") -> float:
        """Gate one application attempt of ``action``.

        Returns the extra latency (simulated ms) the attempt should
        cost — 0 normally, ``latency_spike_ms`` on a spike — or raises
        :class:`~repro.errors.ActionError` when the attempt fails.
        Retried attempts roll again, so a transient fault can clear.
        """
        rate = self._failure_rate_for(action)
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
        if (
            self.config.latency_spike_rate > 0.0
            and self._rng.random() < self.config.latency_spike_rate
        ):
            self._spikes.inc()
            return self.config.latency_spike_ms
        return 0.0

    def probe_spike_ms(self) -> float:
        """Extra simulated ms to add to one measured what-if probe.

        Models measurement noise: a spiked probe's cost (including the
        spike) is what lands in the what-if cost cache, exactly as a
        noisy measurement would on a loaded production system.
        """
        if (
            self.config.probe_spike_rate > 0.0
            and self._rng.random() < self.config.probe_spike_rate
        ):
            self._probe_spikes.inc()
            return self.config.probe_spike_ms
        return 0.0

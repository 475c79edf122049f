"""Fault injection and recovery for the self-managing tuning loop.

The paper's framework assumes reconfiguration actions succeed; real
systems do not get that luxury. This package makes action failure a
first-class, *deterministic* part of the simulation:

- :class:`FaultInjector` / :class:`FaultConfig` — seeded failure dice
  rolled per action application, transient vs. permanent fault classes;
- :func:`~repro.faults.recovery.backoff_ms` — capped exponential backoff
  in simulated time for transient failures (used by the failure-aware
  executors in :mod:`repro.tuning.executors`);
- :class:`FeatureQuarantine` — the organizer's per-feature circuit
  breaker that quarantines a feature after repeated failed
  applications and re-admits it on probation.

See docs/robustness.md for the full fault model and recovery
invariants.
"""

from repro.faults.injector import FaultConfig, FaultInjector
from repro.faults.quarantine import Admission, FeatureQuarantine, QuarantineState

__all__ = [
    "Admission",
    "FaultConfig",
    "FaultInjector",
    "FeatureQuarantine",
    "QuarantineState",
]

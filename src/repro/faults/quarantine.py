"""Per-feature circuit breaker: graceful degradation of the tuning loop.

A feature whose applications keep failing (a broken enumerator, a
structurally failing action, a hostile fault schedule) must not be
allowed to abort every pass: after :data:`FAILURE_THRESHOLD`
*consecutive* failed applications the feature is quarantined — excluded
from tuning — and re-admitted on probation once the probation window
(:data:`PROBATION_MS` of simulated time) has passed. One probation
success closes the breaker; one probation failure re-opens it for
another full window. This is the organizer-level
"constraint enforcement" of the paper's Section II-E extended to the
loop's own reliability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.kpi.metrics import QUARANTINE_CLOSED, QUARANTINE_OPENED
from repro.telemetry.metrics import MetricRegistry

#: consecutive failed applications after which a feature is quarantined
FAILURE_THRESHOLD = 3
#: simulated ms a quarantined feature waits before a probation attempt
PROBATION_MS = 30 * 60_000.0


class QuarantineState(enum.Enum):
    """Circuit-breaker state of one feature."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class Admission(enum.Enum):
    """Outcome of asking whether a feature may be tuned now."""

    #: breaker closed: tune normally
    ADMITTED = "admitted"
    #: probation window elapsed: one trial application is allowed
    PROBATION = "probation"
    #: still quarantined: skip the feature this pass
    QUARANTINED = "quarantined"


@dataclass
class _FeatureState:
    state: QuarantineState = QuarantineState.CLOSED
    consecutive_failures: int = 0
    opened_at_ms: float = 0.0


class FeatureQuarantine:
    """Tracks consecutive application failures per feature."""

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self._states: dict[str, _FeatureState] = {}
        registry = registry if registry is not None else MetricRegistry()
        self._opened = registry.counter(QUARANTINE_OPENED)
        self._closed = registry.counter(QUARANTINE_CLOSED)

    def _state(self, feature: str) -> _FeatureState:
        return self._states.setdefault(feature, _FeatureState())

    # ------------------------------------------------------------------
    # admission

    def admit(self, feature: str, now_ms: float) -> Admission:
        """Decide whether ``feature`` may be tuned at ``now_ms``.

        An OPEN breaker whose probation window has elapsed transitions
        to HALF_OPEN here (and reports :attr:`Admission.PROBATION`), so
        callers learn about re-admissions exactly when they act on them.
        """
        st = self._states.get(feature)
        if st is None or st.state is QuarantineState.CLOSED:
            return Admission.ADMITTED
        if st.state is QuarantineState.OPEN:
            if now_ms - st.opened_at_ms >= PROBATION_MS:
                st.state = QuarantineState.HALF_OPEN
                return Admission.PROBATION
            return Admission.QUARANTINED
        return Admission.PROBATION

    def remaining_ms(self, feature: str, now_ms: float) -> float:
        """Simulated ms until an OPEN feature reaches probation (else 0)."""
        st = self._states.get(feature)
        if st is None or st.state is not QuarantineState.OPEN:
            return 0.0
        return max(0.0, st.opened_at_ms + PROBATION_MS - now_ms)

    # ------------------------------------------------------------------
    # outcome feedback

    def record_failure(self, feature: str, now_ms: float) -> bool:
        """Record one failed application; returns True when the breaker
        opened (or re-opened) on this call."""
        st = self._state(feature)
        st.consecutive_failures += 1
        should_open = st.state is QuarantineState.HALF_OPEN or (
            st.state is QuarantineState.CLOSED
            and st.consecutive_failures >= FAILURE_THRESHOLD
        )
        if should_open:
            st.state = QuarantineState.OPEN
            st.opened_at_ms = now_ms
            self._opened.inc()
            return True
        return False

    def open(self, feature: str, now_ms: float) -> bool:
        """Force the breaker open, bypassing the failure threshold.

        Used by outer watchdogs that identify a misbehaving feature
        through evidence the per-application counter cannot see — e.g.
        the commit guard flagging a repeat offender whose commits keep
        regressing runtime KPIs despite applying cleanly. Returns True
        when the breaker newly opened (re-opening an OPEN breaker only
        restarts its probation window and is not counted again).
        """
        st = self._state(feature)
        already_open = st.state is QuarantineState.OPEN
        st.state = QuarantineState.OPEN
        st.opened_at_ms = now_ms
        if already_open:
            return False
        self._opened.inc()
        return True

    def record_success(self, feature: str) -> bool:
        """Record one successful application; returns True when the
        breaker closed from probation on this call."""
        st = self._state(feature)
        was_probation = st.state is QuarantineState.HALF_OPEN
        st.state = QuarantineState.CLOSED
        st.consecutive_failures = 0
        if was_probation:
            self._closed.inc()
            return True
        return False

    # ------------------------------------------------------------------
    # inspection

    def state(self, feature: str) -> QuarantineState:
        st = self._states.get(feature)
        return st.state if st is not None else QuarantineState.CLOSED

    def consecutive_failures(self, feature: str) -> int:
        st = self._states.get(feature)
        return st.consecutive_failures if st is not None else 0

    def quarantined_features(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                name
                for name, st in self._states.items()
                if st.state is QuarantineState.OPEN
            )
        )

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Per-feature state view for logs and the CLI."""
        return {
            name: {
                "state": st.state.value,
                "consecutive_failures": st.consecutive_failures,
                "opened_at_ms": st.opened_at_ms,
            }
            for name, st in sorted(self._states.items())
        }

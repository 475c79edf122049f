"""Retry policy for transient action failures.

Backoff happens in *simulated* time: a retried action advances the
database clock by the backoff delay (the system was waiting), but never
the work counters (no reconfiguration effort was spent waiting) — the
work-vs-elapsed contract (docs/components.md, "Changing the
configuration") extended to failure handling. See docs/robustness.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient action failures."""

    #: retries after the first failed attempt (0 disables retrying)
    max_retries: int = 3
    #: backoff before the first retry, in simulated ms
    base_backoff_ms: float = 50.0
    #: growth factor per further retry
    multiplier: float = 2.0
    #: cap on a single backoff delay, in simulated ms
    max_backoff_ms: float = 1_000.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff_ms < 0:
            raise ValueError("base_backoff_ms must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if self.max_backoff_ms < self.base_backoff_ms:
            raise ValueError("max_backoff_ms must be >= base_backoff_ms")

    def backoff_ms(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), capped."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(
            self.base_backoff_ms * self.multiplier**attempt,
            self.max_backoff_ms,
        )

    @property
    def total_backoff_ms(self) -> float:
        """Simulated ms a fully exhausted retry sequence waits."""
        return sum(self.backoff_ms(i) for i in range(self.max_retries))

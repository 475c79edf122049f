"""Retry backoff for transient action failures.

Backoff happens in *simulated* time: a retried action advances the
database clock by the backoff delay (the system was waiting), but never
the work counters (no reconfiguration effort was spent waiting) — the
work-vs-elapsed contract (docs/components.md, "Changing the
configuration") extended to failure handling. See docs/robustness.md.
"""

from __future__ import annotations

#: retries after the first failed attempt
MAX_RETRIES = 3
#: backoff before the first retry, in simulated ms
BASE_BACKOFF_MS = 50.0
#: growth factor per further retry
BACKOFF_MULTIPLIER = 2.0
#: cap on a single backoff delay, in simulated ms
MAX_BACKOFF_MS = 1_000.0


def backoff_ms(attempt: int) -> float:
    """Capped exponential backoff before retry number ``attempt``
    (0-based), in simulated ms."""
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    return min(BASE_BACKOFF_MS * BACKOFF_MULTIPLIER**attempt, MAX_BACKOFF_MS)

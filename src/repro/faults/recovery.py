"""Retry policy for transient action failures.

Backoff happens in *simulated* time: a retried action advances the
database clock by the backoff delay (the system was waiting), but never
the work counters (no reconfiguration effort was spent waiting) — the
work-vs-elapsed contract (docs/components.md, "Changing the
configuration") extended to failure handling. See docs/robustness.md.

Backoff may carry **seeded jitter**: when a shared transient fault (a
storage hiccup, a lock convoy) hits many tenants of a fleet at once,
un-jittered exponential backoff makes every tenant retry at exactly the
same simulated instants — a retry stampede. Setting ``jitter`` spreads
each delay over ``[delay * (1 - jitter), delay]``, with the draw derived
deterministically from ``(seed, key, attempt)`` via
:func:`repro.util.rng.derive_rng` — same seed and key, same schedule, so
jittered experiments stay exactly reproducible while distinct keys
(tenants) desynchronise. ``jitter=0`` (the default) keeps the historic
closed-form delays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import derive_rng


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
    #: fraction of each delay randomised away (0 = no jitter; 0.5 means
    #: a delay lands uniformly in [delay/2, delay])
    jitter: float = 0.0
    #: seed of the jitter stream (only read when ``jitter > 0``)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff_ms < 0:
            raise ValueError("base_backoff_ms must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if self.max_backoff_ms < self.base_backoff_ms:
            raise ValueError("max_backoff_ms must be >= base_backoff_ms")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_ms(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (0-based), capped.

        ``key`` salts the jitter stream — callers pass a stable identity
        (the fleet executors pass their tenant id) so concurrent
        retriers of one shared fault fan out instead of retrying in
        lockstep. With ``jitter == 0`` the key is ignored and the
        historic deterministic delay is returned unchanged.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        delay = min(
            self.base_backoff_ms * self.multiplier**attempt,
            self.max_backoff_ms,
        )
        if self.jitter <= 0.0:
            return delay
        draw = derive_rng(
            self.seed, f"retry-jitter:{key}:{attempt}"
        ).random()
        return delay * (1.0 - self.jitter * draw)

    @property
    def total_backoff_ms(self) -> float:
        """Simulated ms a fully exhausted retry sequence waits.

        The un-keyed schedule (``key=""``); jitter only ever shortens
        delays, so this is also an upper bound for every keyed schedule.
        """
        return self.total_backoff_ms_for()

    def total_backoff_ms_for(self, key: str = "") -> float:
        """Total backoff of an exhausted retry sequence under ``key``."""
        return sum(self.backoff_ms(i, key) for i in range(self.max_retries))

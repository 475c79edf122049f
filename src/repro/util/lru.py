"""The one bounded LRU and the one cache-stats type.

Every bounded cache in the package — the planner's compiled plans, the
what-if optimizer's probe costs, the query plan cache's template entries
and each chunk's index memo — is a :class:`BoundedLRU`; every
``cache_stats`` property returns a :class:`CacheStats`.
``docs/planner.md`` ("Footprints and caches") says what each cache keys
on. :class:`repro.dbms.executor.BufferPool` is the
deliberate exception: it admits by byte weight, not entry count.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import ItemsView, Iterable, ValuesView
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class BoundedLRU(Generic[K, V]):
    """A mapping bounded by entry count, evicting least recently used.

    ``get`` and ``put`` make the key the most recent; ``in``, ``peek``
    and iteration leave the order alone. Capacity 0 disables the cache:
    ``put`` stores nothing and every lookup misses.
    """

    __slots__ = ("_capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self._entries: OrderedDict[K, V] = OrderedDict()
        self.resize(capacity)

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K, default: V | None = None) -> V | None:
        """The value for ``key``, marking it most recently used."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._entries.move_to_end(key)
        return value

    def peek(self, key: K, default: V | None = None) -> V | None:
        """The value for ``key`` without touching the LRU order."""
        return self._entries.get(key, default)

    def put(self, key: K, value: V) -> int:
        """Store ``value`` as most recent; returns how many entries were
        evicted to stay within capacity."""
        if self._capacity == 0:
            return 0
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        # the common put evicts nothing: spare hot callers the extra call
        if len(entries) <= self._capacity:
            return 0
        return self._evict_to_fit()

    def clear(self) -> None:
        self._entries.clear()

    def resize(self, capacity: int) -> int:
        """Change the bound; shrinking evicts oldest entries first and
        returns how many went."""
        if capacity < 0:
            raise ValueError("LRU capacity must be non-negative")
        self._capacity = capacity
        return self._evict_to_fit()

    def items(self) -> ItemsView[K, V]:
        """Entries from least to most recently used."""
        return self._entries.items()

    def values(self) -> ValuesView[V]:
        return self._entries.values()

    def _evict_to_fit(self) -> int:
        entries = self._entries
        evicted = 0
        while len(entries) > self._capacity:
            entries.popitem(last=False)
            evicted += 1
        return evicted


@dataclass(frozen=True)
class CacheStats:
    """Cumulative counters of *one* cache instance.

    Stats are strictly per cache — in a fleet every tenant's planner and
    optimizer own theirs — and never shared between tenants; a fleet-wide
    view is an explicit :meth:`aggregate` over the per-tenant stats, so
    one tenant's hit rate can never pollute another's KPIs.
    ``invalidations`` counts entries dropped because they went stale
    (0 for caches whose keys cannot go stale).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache; 0 when unused."""
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "invalidations": float(self.invalidations),
            "size": float(self.size),
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def aggregate(cls, stats: Iterable["CacheStats"]) -> "CacheStats":
        """Fleet rollup: field-wise sum over per-tenant stats.

        ``hit_rate`` is derived from the summed hits/misses (a mean of
        per-tenant rates would weight an idle tenant like a hot one).
        """
        hits = misses = evictions = invalidations = size = 0
        for s in stats:
            hits += s.hits
            misses += s.misses
            evictions += s.evictions
            invalidations += s.invalidations
            size += s.size
        return cls(
            hits=hits,
            misses=misses,
            evictions=evictions,
            invalidations=invalidations,
            size=size,
        )

"""Named metric primitives: counters, gauges, and the shared registry.

The registry is the one place components publish their internal counters
so the rest of the framework can read them without bespoke wiring: the
what-if optimizer registers its cache counters, the query executor its
work counters, and the KPI monitor derives per-interval KPIs generically
from whatever is registered. A counter object is cheap to bump (one
attribute add), so components keep a direct reference and never pay a
dict lookup on the hot path.
"""

from __future__ import annotations

from typing import Callable, Mapping

#: Separator between a tenant label and a metric name in labelled
#: snapshots (``tenant::metric``); bare names mean the single-tenant path.
TENANT_SEP = "::"


def tenant_metric(tenant: str, name: str) -> str:
    """The labelled form of ``name`` for ``tenant`` ('' leaves it bare)."""
    return f"{tenant}{TENANT_SEP}{name}" if tenant else name


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> float:
        """Add ``amount`` (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A named point-in-time value, set directly or read from a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(
        self,
        name: str,
        fn: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class MetricInterval:
    """Counter deltas since a baseline snapshot.

    Counters registered after the baseline was taken are reported against
    an implicit baseline of zero, so a component that comes alive halfway
    through an interval still shows up in that interval's deltas.
    """

    def __init__(self, registry: "MetricRegistry") -> None:
        self._registry = registry
        self._baseline = registry.snapshot_counters()

    def deltas(self) -> dict[str, float]:
        """Per-counter change since the baseline."""
        current = self._registry.snapshot_counters()
        return {
            name: value - self._baseline.get(name, 0.0)
            for name, value in current.items()
        }


class MetricRegistry:
    """Get-or-create registry of named counters and gauges."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    # ------------------------------------------------------------------
    # registration

    def counter(self, name: str) -> Counter:
        """Return the counter called ``name``, creating it at zero."""
        metric = self._counters.get(name)
        if metric is None:
            if name in self._gauges:
                raise ValueError(f"{name!r} is already a gauge")
            metric = Counter(name)
            self._counters[name] = metric
        return metric

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        """Return the gauge called ``name``, creating it (optionally
        callback-backed) when absent."""
        metric = self._gauges.get(name)
        if metric is None:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            metric = Gauge(name, fn)
            self._gauges[name] = metric
        return metric

    # ------------------------------------------------------------------
    # reading

    def __contains__(self, name: str) -> bool:
        return name in self._counters or name in self._gauges

    def read(self, name: str, default: float = 0.0) -> float:
        metric = self._counters.get(name) or self._gauges.get(name)
        return metric.value if metric is not None else default

    def snapshot_counters(self) -> dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def snapshot_gauges(self) -> dict[str, float]:
        return {name: g.value for name, g in self._gauges.items()}

    def snapshot(self) -> dict[str, float]:
        """All current metric values, counters and gauges merged."""
        snap = self.snapshot_counters()
        snap.update(self.snapshot_gauges())
        return snap

    def snapshot_labelled(self, tenant: str) -> dict[str, float]:
        """:meth:`snapshot` with every name prefixed ``tenant::name``.

        The labelled form lets per-tenant registries be merged into one
        flat fleet view without name collisions; an empty tenant label
        leaves names bare (the single-tenant path is unchanged).
        """
        return {
            tenant_metric(tenant, name): value
            for name, value in self.snapshot().items()
        }

    def interval(self) -> MetricInterval:
        """Open an interval baselined at the current counter values."""
        return MetricInterval(self)


def rollup_counters(
    registries: Mapping[str, "MetricRegistry"],
) -> dict[str, float]:
    """Fleet rollup: counter values summed across tenant registries.

    Only counters are summed — gauges (sizes, rates, coverage) do not
    add meaningfully across tenants and stay visible through
    :meth:`MetricRegistry.snapshot_labelled` instead. Each tenant keeps
    its own registry; this explicit aggregation is the only place
    tenants' numbers meet.
    """
    totals: dict[str, float] = {}
    for registry in registries.values():
        for name, value in registry.snapshot_counters().items():
            totals[name] = totals.get(name, 0.0) + value
    return totals

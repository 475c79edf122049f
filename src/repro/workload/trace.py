"""Workload traces: time-binned execution counts per query family.

A trace is the ground-truth future the closed-loop simulation replays and
the workload predictor tries to forecast. Rates per family can carry
seasonality (the paper's "latest scenarios (seasonal time intervals)"),
linear trend, and Poisson noise.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import derive_rng
from repro.workload.generator import QueryFamily


@dataclass(frozen=True)
class FamilyRate:
    """Rate model of one family: executions per bin over time."""

    base: float
    #: seasonal component: ``amplitude * sin(2*pi*(t+phase)/period)``
    amplitude: float = 0.0
    period_bins: int = 24
    phase_bins: float = 0.0
    #: additive change in rate per bin
    trend_per_bin: float = 0.0

    def rate_at(self, bin_index: int) -> float:
        seasonal = 0.0
        if self.amplitude:
            seasonal = self.amplitude * math.sin(
                2.0 * math.pi * (bin_index + self.phase_bins) / self.period_bins
            )
        return max(0.0, self.base + seasonal + self.trend_per_bin * bin_index)


@dataclass
class TraceBin:
    """Execution counts per family within one time bin."""

    index: int
    start_ms: float
    duration_ms: float
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class WorkloadTrace:
    """A sequence of time bins with per-family execution counts."""

    def __init__(
        self,
        bins: Sequence[TraceBin],
        families: Mapping[str, QueryFamily],
        bin_duration_ms: float,
    ) -> None:
        self._bins = list(bins)
        self._families = dict(families)
        self._bin_duration_ms = float(bin_duration_ms)

    @property
    def bins(self) -> list[TraceBin]:
        return self._bins

    @property
    def families(self) -> dict[str, QueryFamily]:
        return dict(self._families)

    @property
    def bin_duration_ms(self) -> float:
        return self._bin_duration_ms

    def __len__(self) -> int:
        return len(self._bins)

    def family_series(self, name: str) -> np.ndarray:
        """Counts of one family across all bins."""
        if name not in self._families:
            raise KeyError(f"unknown family {name!r}")
        return np.array([b.counts.get(name, 0) for b in self._bins], dtype=float)

    def copy(self) -> "WorkloadTrace":
        cloned = [
            TraceBin(b.index, b.start_ms, b.duration_ms, dict(b.counts))
            for b in self._bins
        ]
        return WorkloadTrace(cloned, self._families, self._bin_duration_ms)


def generate_trace(
    families: Mapping[str, QueryFamily],
    rates: Mapping[str, FamilyRate],
    n_bins: int,
    bin_duration_ms: float,
    seed: int,
    noise: bool = True,
) -> WorkloadTrace:
    """Generate a trace with Poisson-distributed counts around each rate."""
    unknown = set(rates) - set(families)
    if unknown:
        raise ValueError(f"rates for unknown families: {sorted(unknown)}")
    rng = derive_rng(seed, "trace")
    bins: list[TraceBin] = []
    for index in range(n_bins):
        counts: dict[str, int] = {}
        for name in families:
            rate = rates[name].rate_at(index) if name in rates else 0.0
            if rate <= 0:
                counts[name] = 0
            elif noise:
                counts[name] = int(rng.poisson(rate))
            else:
                counts[name] = int(round(rate))
        bins.append(
            TraceBin(
                index=index,
                start_ms=index * bin_duration_ms,
                duration_ms=bin_duration_ms,
                counts=counts,
            )
        )
    return WorkloadTrace(bins, families, bin_duration_ms)

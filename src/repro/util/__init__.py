"""Shared utilities: seeded randomness, units, simulated time, text tables."""

from repro.util.rng import derive_rng, derive_seed
from repro.util.timer import SimulatedClock
from repro.util.units import GIB, KIB, MIB
from repro.util.tables import render_table

__all__ = [
    "derive_rng",
    "derive_seed",
    "SimulatedClock",
    "KIB",
    "MIB",
    "GIB",
    "render_table",
]

"""Database knobs: named, typed, bounded configuration parameters.

Knobs are the continuous/stepped half of the configuration space the paper
describes ("the buffer pool size or the number of available threads are
typical examples for knobs"). Candidates for knob tuning are ranges with a
step (Section II-D.a), which :class:`Knob` captures directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KnobError
from repro.util.units import GIB, MIB


@dataclass(frozen=True)
class Knob:
    """Definition of one knob: an inclusive stepped numeric domain."""

    name: str
    lower: float
    upper: float
    step: float
    default: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise KnobError(f"knob {self.name!r}: lower > upper")
        if self.step <= 0:
            raise KnobError(f"knob {self.name!r}: step must be positive")
        if not self.is_valid(self.default):
            raise KnobError(f"knob {self.name!r}: default outside domain")

    def is_valid(self, value: float) -> bool:
        if value < self.lower or value > self.upper:
            return False
        steps = (value - self.lower) / self.step
        return abs(steps - round(steps)) < 1e-9

    def domain_values(self) -> list[float]:
        """All settable values, smallest first."""
        values = []
        v = self.lower
        while v <= self.upper + 1e-9:
            values.append(min(v, self.upper))
            v += self.step
        return values


class KnobRegistry:
    """Holds knob definitions and their current values."""

    def __init__(self, knobs: list[Knob] | None = None) -> None:
        self._definitions: dict[str, Knob] = {}
        self._values: dict[str, float] = {}
        for knob in knobs or []:
            self.define(knob)

    def define(self, knob: Knob) -> None:
        if knob.name in self._definitions:
            raise KnobError(f"knob {knob.name!r} already defined")
        self._definitions[knob.name] = knob
        self._values[knob.name] = knob.default

    def definition(self, name: str) -> Knob:
        try:
            return self._definitions[name]
        except KeyError:
            raise KnobError(f"unknown knob {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._definitions)

    def get(self, name: str) -> float:
        self.definition(name)
        return self._values[name]

    def set(self, name: str, value: float) -> float:
        """Set a knob; returns the previous value."""
        knob = self.definition(name)
        if not knob.is_valid(value):
            raise KnobError(
                f"value {value} outside domain of knob {name!r} "
                f"[{knob.lower}, {knob.upper}] step {knob.step}"
            )
        previous = self._values[name]
        self._values[name] = float(value)
        return previous

    def snapshot(self) -> dict[str, float]:
        return dict(self._values)


BUFFER_POOL_KNOB = "buffer_pool_bytes"
SCAN_THREADS_KNOB = "scan_threads"


def standard_knobs() -> list[Knob]:
    """The knob set every :class:`~repro.dbms.database.Database` starts with."""
    return [
        Knob(
            BUFFER_POOL_KNOB,
            lower=0.0,
            upper=4 * GIB,
            step=32 * MIB,
            default=256 * MIB,
            description=(
                "Bytes of DRAM reserved for caching chunks placed on slower "
                "tiers; 0 disables the buffer pool."
            ),
        ),
        Knob(
            SCAN_THREADS_KNOB,
            lower=1,
            upper=16,
            step=1,
            default=1,
            description="Worker threads available to a single table scan.",
        ),
    ]

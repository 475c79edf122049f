"""Hierarchical spans timed on the simulated and the wall clock.

A span covers one unit of self-management work (a tuning pass, one
feature's run, one tuner phase, one sampled query). Spans nest: the
tracer keeps a stack, so ``with tracer.span(...)`` inside an open span
becomes a child, and finished root spans land in a bounded ring for
later inspection (``python -m repro trace``).

Every span carries two durations. Simulated milliseconds are read from
the database clock and describe what the *database* experienced; wall
seconds come from ``time.perf_counter`` and describe what the *host*
paid. Tuning deliberation costs no simulated time by design, so the two
can differ wildly — which is exactly what the trace view is for.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.telemetry.sinks import JsonlSink


class _NowMs:
    """Anything with a ``now_ms`` property (duck-typed SimulatedClock)."""

    now_ms: float


@dataclass
class Span:
    """One timed, tagged unit of work in the span tree."""

    name: str
    started_sim_ms: float
    started_wall_s: float
    depth: int = 0
    tags: dict[str, object] = field(default_factory=dict)
    parent: "Span | None" = field(default=None, repr=False)
    children: list["Span"] = field(default_factory=list)
    ended_sim_ms: float | None = None
    ended_wall_s: float | None = None

    @property
    def is_open(self) -> bool:
        return self.ended_wall_s is None

    @property
    def sim_ms(self) -> float:
        """Simulated milliseconds covered by the span (0 while open)."""
        if self.ended_sim_ms is None:
            return 0.0
        return self.ended_sim_ms - self.started_sim_ms

    @property
    def wall_ms(self) -> float:
        """Host milliseconds spent inside the span (0 while open)."""
        if self.ended_wall_s is None:
            return 0.0
        return (self.ended_wall_s - self.started_wall_s) * 1e3

    def tag(self, **tags: object) -> "Span":
        """Attach tags after the span started (e.g. results, counts)."""
        self.tags.update(tags)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over the span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    @property
    def max_depth(self) -> int:
        """Deepest nesting level in the subtree, counting self as 1."""
        return 1 + max((c.max_depth for c in self.children), default=0)

    def as_record(self) -> dict[str, object]:
        """Flat, JSON-friendly view of this span (no children)."""
        return {
            "type": "span",
            "name": self.name,
            "depth": self.depth,
            "parent": self.parent.name if self.parent is not None else None,
            "started_sim_ms": self.started_sim_ms,
            "sim_ms": self.sim_ms,
            "wall_ms": self.wall_ms,
            "tags": dict(self.tags),
        }


class Tracer:
    """Builds span trees; finished roots are kept in a bounded ring."""

    def __init__(
        self,
        clock: _NowMs | None = None,
        sink: "JsonlSink | None" = None,
        max_roots: int = 64,
        tenant: str = "",
    ) -> None:
        if max_roots < 1:
            raise ValueError("max_roots must be at least 1")
        self._clock = clock
        self._sink = sink
        self._tenant = tenant
        self._stack: list[Span] = []
        self._roots: deque[Span] = deque(maxlen=max_roots)

    @property
    def tenant(self) -> str:
        """Tenant id stamped on every sink record ('' for single-tenant)."""
        return self._tenant

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _now_ms(self) -> float:
        return self._clock.now_ms if self._clock is not None else 0.0

    @contextmanager
    def span(self, name: str, /, **tags: object) -> Iterator[Span]:
        """Open a span around the ``with`` body; nests under the current
        span. Exceptions are tagged onto the span and re-raised. The span
        name is positional-only so ``name=...`` stays usable as a tag."""
        span = self._open(name, tags)
        try:
            yield span
        except BaseException as exc:
            span.tags["error"] = repr(exc)
            raise
        finally:
            self._close(span)

    def record(
        self,
        name: str,
        /,
        sim_ms: float = 0.0,
        wall_s: float = 0.0,
        **tags: object,
    ) -> Span:
        """Record an already-finished unit of work as a complete span.

        Used where wrapping the work in a ``with`` block is impractical
        (the database's sampled per-query spans): the span starts at the
        current clocks and is immediately closed ``sim_ms``/``wall_s``
        later.
        """
        span = self._open(name, tags)
        span.ended_sim_ms = span.started_sim_ms + sim_ms
        span.ended_wall_s = span.started_wall_s + wall_s
        self._finish(span)
        self._stack.pop()
        return span

    def _open(self, name: str, tags: dict[str, object]) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            started_sim_ms=self._now_ms(),
            started_wall_s=time.perf_counter(),
            depth=len(self._stack),
            tags=dict(tags),
            parent=parent,
        )
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.ended_sim_ms = self._now_ms()
        span.ended_wall_s = time.perf_counter()
        # unwind to this span even if inner spans leaked (defensive)
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._finish(span)

    def _finish(self, span: Span) -> None:
        if span.parent is None:
            self._roots.append(span)
        if self._sink is not None:
            # the tenant rides on the record, not the span: span objects
            # stay tenant-agnostic, the sink stream stays separable
            record = span.as_record()
            record["tenant"] = self._tenant
            self._sink.emit(record)

    # ------------------------------------------------------------------
    # finished-root access

    def roots(self, name: str | None = None) -> tuple[Span, ...]:
        if name is None:
            return tuple(self._roots)
        return tuple(s for s in self._roots if s.name == name)

    def last_root(self, name: str | None = None) -> Span | None:
        for span in reversed(self._roots):
            if name is None or span.name == name:
                return span
        return None


def render_span_tree(span: Span, indent: str = "  ") -> str:
    """Human-readable, indented rendering of a span subtree."""
    lines: list[str] = []
    base = span.depth
    for node in span.walk():
        tags = ", ".join(
            f"{k}={v}" for k, v in node.tags.items() if k != "error"
        )
        error = node.tags.get("error")
        suffix = f" [{tags}]" if tags else ""
        if error is not None:
            suffix += f" !error={error}"
        lines.append(
            f"{indent * (node.depth - base)}{node.name}"
            f"  sim={node.sim_ms:.3f} ms  wall={node.wall_ms:.3f} ms"
            f"{suffix}"
        )
    return "\n".join(lines)

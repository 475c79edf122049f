"""Per-layer tracing from outside the program.

``Tracer.install`` replaces a fixed table of public callables in
``src/repro`` with timing wrappers and ``Tracer.uninstall`` puts the
originals back; nothing under ``src/`` knows it is being traced. Every
wrapped call is a span. Spans are kept in memory and written out once,
when the run ends:

- every span adds to an aggregate keyed ``(name, parent name)`` holding
  count, total seconds and self seconds (its duration minus the part its
  child spans cover), so self times over all spans sum to the root span.
  A span nested inside one of its own name (``hypothetical`` nests) adds
  to count and self only, so a name's total never counts a moment twice;
- spans of the coarse layers (``KEEP``: a bin, a tick, a tuning pass, an
  RPC) are also kept one by one with their own id, the id of the nearest
  kept ancestor and the id of the bin they ran in. Per-query spans are
  aggregated only: a serve workload makes several hundred thousand.

Forked fleet workers inherit the wrappers; an at-fork hook switches the
child's tracer off, so worker-side time shows only as the parent's wait
(``fleet.execute_wait``, ``fleet.tick_rpc`` ...).
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter

#: (span name, module, class or None, attribute). Several callables may
#: share one span name. A module-level function is patched in the module
#: whose namespace the caller reads it from.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("workload.sample", "repro.workload.generator", "QueryFamily", "sample"),
    ("plan.plan_for", "repro.plan.planner", "QueryPlanner", "plan_for"),
    ("plan.compile", "repro.plan.planner", "QueryPlanner", "compile"),
    ("dbms.execute", "repro.dbms.database", "Database", "execute"),
    ("dbms.executor", "repro.dbms.executor", "QueryExecutor", "execute"),
    ("dbms.run_plan", "repro.dbms.executor", None, "run_plan"),
    ("dbms.plan_cache_record", "repro.dbms.plan_cache", "QueryPlanCache", "record"),
    ("dbms.reconfigure", "repro.dbms.database", "Database", "create_index"),
    ("dbms.reconfigure", "repro.dbms.database", "Database", "drop_index"),
    ("dbms.reconfigure", "repro.dbms.database", "Database", "set_encoding"),
    ("dbms.reconfigure", "repro.dbms.database", "Database", "move_chunk"),
    ("dbms.reconfigure", "repro.dbms.database", "Database", "sort_chunk"),
    ("dbms.reconfigure", "repro.dbms.database", "Database", "set_knob"),
    ("dbms.index_build", "repro.dbms.index", "SortedCompositeIndex", "build"),
    ("kpi.sample", "repro.kpi.monitor", "RuntimeKPIMonitor", "sample"),
    ("forecasting.observe", "repro.forecasting.predictor", "WorkloadPredictor", "observe"),
    ("forecasting.forecast", "repro.forecasting.predictor", "WorkloadPredictor", "forecast"),
    ("guard.tick", "repro.core.organizer", "Organizer", "guard_tick"),
    ("cost.batch_query_costs", "repro.cost.what_if", "WhatIfOptimizer", "batch_query_costs"),
    ("cost.hypothetical", "repro.cost.what_if", "WhatIfOptimizer", "hypothetical"),
    ("tuning.propose", "repro.tuning.tuner", "Tuner", "propose"),
    ("tuning.execute", "repro.tuning.executors.sequential", "SequentialExecutor", "execute"),
    ("configuration.delta_apply", "repro.configuration.delta", "ConfigurationDelta", "apply"),
    ("configuration.delta_apply", "repro.configuration.delta", "ConfigurationDelta", "apply_raw"),
    ("configuration.capture", "repro.configuration.config", "ConfigurationInstance", "capture"),
    ("ordering.measure", "repro.ordering.dependence", "DependenceAnalyzer", "measure"),
    ("ordering.lp", "repro.ordering.lp", "LPOrderOptimizer", "optimize"),
    ("ordering.run", "repro.ordering.recursive", "RecursiveTuningPlanner", "run"),
    ("core.execute_bin", "repro.core.simulation", "ClosedLoopSimulation", "execute_bin"),
    ("core.finish_bin", "repro.core.simulation", "ClosedLoopSimulation", "finish_bin"),
    ("core.on_tick", "repro.core.driver", "Driver", "on_tick"),
    ("core.organizer_tick", "repro.core.organizer", "Organizer", "tick"),
    ("core.run_tuning", "repro.core.organizer", "Organizer", "run_tuning"),
    ("core.run_tuning", "repro.core.organizer", "Organizer", "run_policy_pass"),
    ("core.replay_pass", "repro.core.organizer", "Organizer", "replay_pass"),
    ("fleet.run_bin", "repro.fleet.driver", "FleetDriver", "run_bin"),
    ("fleet.report", "repro.fleet.driver", "FleetDriver", "report"),
    ("fleet.sync", "repro.fleet.driver", "FleetDriver", "sync_workers"),
    ("fleet.checkpoint", "repro.fleet.driver", "FleetDriver", "_checkpoint_periodic"),
    ("fleet.arbiter", "repro.fleet.arbiter", "FleetOrganizer", "view"),
    ("fleet.arbiter", "repro.fleet.arbiter", "FleetOrganizer", "apply_ruling"),
    ("fleet.arbiter", "repro.fleet.arbiter", "FleetOrganizer", "ingest_harvest"),
    ("fleet.arbiter", "repro.fleet.arbiter", "FleetOrganizer", "replay_round"),
    ("fleet.execute_wait", "repro.fleet.parallel", "FleetWorkerPool", "execute_all"),
    ("fleet.tick_rpc", "repro.fleet.parallel", "FleetWorkerPool", "tick"),
    ("fleet.replay_rpc", "repro.fleet.parallel", "FleetWorkerPool", "replay"),
    ("fleet.snapshot", "repro.fleet.parallel", "FleetWorkerPool", "snapshot"),
)

#: Span names kept one by one (at most a few thousand a run).
KEEP = frozenset(
    name
    for name, *_ in TARGETS
    if name.split(".")[0]
    in ("core", "fleet", "tuning", "ordering", "kpi", "forecasting", "guard")
)

#: Span names whose every duration is kept, for percentiles.
SAMPLED = frozenset({"dbms.execute"})

#: Callables that return a context manager: the span covers the block.
CONTEXT_MANAGERS = frozenset({"cost.hypothetical"})

#: ``tuning.propose`` spans carry the feature name as a suffix.
_PROPOSE = "tuning.propose"

#: Returns ``(tenant, moved counters, pickled context)`` triples; the
#: wrapper adds up the pickles' sizes (``fleet.snapshot_bytes_per_bin``).
_SNAPSHOT = "fleet.snapshot"

#: The tracer the at-fork hook switches off in a forked child.
_ACTIVE: "Tracer | None" = None
_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.on = False


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.on = False
        #: open spans, innermost last: [name, child seconds, kept id, kept]
        self.stack: list[list] = []
        #: (name, parent name) -> [count, total seconds, self seconds]
        self.agg: dict[tuple[str, str], list] = {}
        #: kept spans: (id, parent id, bin, name, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.samples: dict[str, list[float]] = {n: [] for n in SAMPLED}
        #: how many spans of each name are open (to spot self-nesting)
        self.open_counts: dict[str, int] = {}
        self.bin = -1
        self.snapshot_bytes = 0
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self.stack
        name = frame[0]
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_name = parent[0]
            parent_id = parent[2]
        else:
            parent_name = ""
            parent_id = -1
        still_open = self.open_counts[name] - 1
        self.open_counts[name] = still_open
        key = (name, parent_name)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        if not still_open:
            entry[1] += duration
        entry[2] += duration - frame[1]
        if frame[3]:
            self.spans.append(
                (frame[2], parent_id, self.bin, name, start, end)
            )
        if name in SAMPLED:
            self.samples[name].append(duration)

    def _open(self, name: str, kept: bool) -> list:
        stack = self.stack
        self.open_counts[name] = self.open_counts.get(name, 0) + 1
        if kept:
            self._next_id += 1
            frame = [name, 0.0, self._next_id, True]
        else:
            frame = [name, 0.0, stack[-1][2] if stack else -1, False]
        stack.append(frame)
        return frame

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        if not self.on:
            yield
            return
        frame = self._open(name, True)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self._close(frame, start, end)

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self.stack
        opener = self._open
        close = self._close
        kept = name in KEEP

        if name in CONTEXT_MANAGERS:

            def wrapper(*args, **kwargs):
                manager = fn(*args, **kwargs)
                if not tracer.on:
                    return manager
                return _SpanningManager(tracer, name, kept, manager)

        else:
            # a tuning.propose span carries its feature's name; a
            # fleet.snapshot span adds up the bytes the workers sent back
            by_feature = name == _PROPOSE
            count_bytes = name == _SNAPSHOT

            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                frame = opener(
                    f"{name}.{args[0].feature_name}" if by_feature else name,
                    kept,
                )
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if count_bytes:
                        tracer.snapshot_bytes += sum(
                            len(blob) for _tenant, _moved, blob in result
                        )
                    return result
                finally:
                    end = perf_counter()
                    stack.pop()
                    close(frame, start, end)

        return wrapper

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self) -> None:
        """Wrap every target; the tracer starts switched off."""
        global _ACTIVE, _HOOKED
        if self._originals:
            raise RuntimeError("tracer is already installed")
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is installed")
        for name, module_name, class_name, attr in TARGETS:
            owner = _owner(module_name, class_name)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            elif isinstance(original, staticmethod):
                patched = staticmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            setattr(owner, attr, patched)
            self._originals.append((owner, attr, original))
        _ACTIVE = self
        if not _HOOKED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _HOOKED = True

    def uninstall(self) -> None:
        """Put every original callable back."""
        global _ACTIVE
        self.on = False
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    # ------------------------------------------------------------------
    # reading the recording

    def reset(self) -> None:
        """Forget everything recorded (between repeats)."""
        if self.stack:
            raise RuntimeError(f"spans still open: {self.stack}")
        self.agg.clear()
        self.spans.clear()
        for values in self.samples.values():
            values.clear()
        self.open_counts.clear()
        self.bin = -1
        self.snapshot_bytes = 0
        self._next_id = 0

    def by_name(self) -> dict[str, dict[str, float]]:
        """Aggregates summed over parents: name -> n / total_s / self_s."""
        out: dict[str, dict[str, float]] = {}
        for (name, _parent), (count, total, self_s) in self.agg.items():
            row = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            row["n"] += count
            row["total_s"] += total
            row["self_s"] += self_s
        return out

    def spans_with_descendant(self, name: str, descendant: str) -> list[float]:
        """Durations of kept ``name`` spans that enclose a ``descendant``."""
        parents = {span[0]: span[1] for span in self.spans}
        names = {span[0]: span[3] for span in self.spans}
        hit: set[int] = set()
        for span in self.spans:
            if span[3] != descendant:
                continue
            cursor = span[1]
            while cursor != -1:
                if names[cursor] == name:
                    hit.add(cursor)
                    break
                cursor = parents[cursor]
        return [s[5] - s[4] for s in self.spans if s[0] in hit]

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, one line per aggregate, one per kept span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"type": "header", **header}) + "\n")
            for (name, parent), (count, total, self_s) in sorted(
                self.agg.items()
            ):
                out.write(
                    json.dumps(
                        {
                            "type": "aggregate",
                            "name": name,
                            "parent": parent,
                            "n": count,
                            "total_ms": total * 1000.0,
                            "self_ms": self_s * 1000.0,
                        }
                    )
                    + "\n"
                )
            origin = min((s[4] for s in self.spans), default=0.0)
            for span_id, parent_id, bin_id, name, start, end in sorted(
                self.spans, key=lambda s: s[4]
            ):
                out.write(
                    json.dumps(
                        {
                            "type": "span",
                            "id": span_id,
                            "parent": parent_id,
                            "bin": bin_id,
                            "name": name,
                            "start_ms": (start - origin) * 1000.0,
                            "end_ms": (end - origin) * 1000.0,
                        }
                    )
                    + "\n"
                )


class _SpanningManager:
    """Wraps a context manager so the span covers the ``with`` block."""

    def __init__(self, tracer: Tracer, name: str, kept: bool, manager) -> None:
        self._tracer = tracer
        self._name = name
        self._kept = kept
        self._manager = manager

    def __enter__(self):
        self._frame = self._tracer._open(self._name, self._kept)
        self._start = perf_counter()
        return self._manager.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self._manager.__exit__(*exc_info)
        finally:
            end = perf_counter()
            self._tracer.stack.pop()
            self._tracer._close(self._frame, self._start, end)


def _owner(module_name: str, class_name: str | None):
    owner = importlib.import_module(module_name)
    return owner if class_name is None else getattr(owner, class_name)


def target_objects() -> list:
    """What each target currently is (``selftest.py`` compares identities)."""
    return [
        vars(_owner(module_name, class_name))[attr]
        for _name, module_name, class_name, attr in TARGETS
    ]

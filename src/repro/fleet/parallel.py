"""Tenant hosts: where tenant stacks live during a fleet bin.

The fleet loop has exactly one phase that scales with cores: executing
each tenant's queries for the bin. Everything arbiter-visible — KPI
samples, predictor history, guard state — mutates only inside the
plugin tick, so the :class:`~repro.fleet.driver.FleetDriver` runs all
execute phases first and then serializes the ticks at a commit-ordered
barrier (hot-first) against frozen arbiter views. This module is the
host side of that one loop:

- :class:`LocalHost` owns a set of tenant contexts and answers the
  per-bin protocol — ``execute_all``, ``tick``, ``replay``,
  ``snapshot`` — in whatever process it lives in. The serial fleet is
  one ``LocalHost`` over every context in the driver's process.
- :class:`FleetWorkerPool` is N of them behind pipes: it forks workers
  that each run a ``LocalHost`` over a round-robin slice of the tenants
  (fork start method only: contexts hold sampler closures that cannot
  pickle, so they must be inherited by memory image) and exposes the
  same protocol to the driver.
- Inside a host, :class:`TickRecorder` stands in for the fleet arbiter:
  the driver ships a frozen :class:`~repro.fleet.arbiter.ArbiterView`
  with each tick, the recorder answers the organizer's admission hook
  from it via the pure :func:`~repro.fleet.arbiter.rule_admission`, and
  every ruling and harvested commit is recorded chronologically for the
  driver to apply to the canonical arbiter.
- Each tick reply carries a fresh
  :class:`~repro.fleet.arbiter.TenantDigest` (the driver's digest cache
  is how later admissions and replay gates see this tenant).
- Replay validation (:func:`~repro.fleet.arbiter.attempt_replay`) runs
  on the host that owns the tenant; the cheap digest-only gates run
  driver-side against the cache (:class:`HostReplayTransport`).
- ``snapshot`` pickles each hosted context
  (:meth:`~repro.fleet.context.TenantContext.transfer_snapshot`): the
  driver absorbs the pickles to merge a pool back, so the parent's
  contexts end the run carrying the workers' state, and bundles them
  into a durable checkpoint.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.simulation import BinRecord, PendingBin
from repro.fleet.arbiter import (
    AdmissionRuling,
    ArbiterView,
    FleetConfig,
    ReplayOutcome,
    TenantDigest,
    TuningPrior,
    attempt_replay,
    build_harvest,
    compute_digest,
    rule_admission,
)
from repro.fleet.checkpoint import blob_digest
from repro.fleet.context import TenantContext
from repro.kpi.metrics import WORKER_HARD_KILLS
from repro.telemetry.metrics import MetricRegistry

#: Tag for a recorded admission ruling in a tick's action stream.
RULING = "ruling"
#: Tag for a recorded harvested commit in a tick's action stream.
HARVEST = "harvest"

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL_S = 0.2
#: Seconds a worker may stay silent on one RPC before it is killed and
#: reported as crashed.
RPC_TIMEOUT_S = 120.0
#: Seconds to wait for a worker's stop acknowledgement, and for each join.
STOP_TIMEOUT_S = 5.0


class WorkerCrashed(RuntimeError):
    """A worker process died (or hung past the RPC deadline) mid-RPC.

    Carries enough for the fleet driver's supervision layer to recover:
    which worker, which tenants it owned, and why the pool gave up on
    it. Recovery rolls the fleet back to its restore point and
    deterministically re-executes the bins since — see
    :meth:`repro.fleet.driver.FleetDriver._supervised`.
    """

    def __init__(self, worker: int, tenants: tuple[str, ...], reason: str):
        super().__init__(
            f"fleet worker {worker} (tenants {', '.join(tenants) or '-'}) "
            f"crashed: {reason}"
        )
        self.worker = worker
        self.tenants = tenants
        self.reason = reason


@dataclass
class TickResult:
    """Everything the parent needs from one tenant's tick."""

    record: BinRecord
    #: the tenant's digest *after* this tick (refreshes the cache)
    digest: TenantDigest
    #: chronological arbiter actions the tick produced: ``(RULING,
    #: AdmissionRuling)`` and ``(HARVEST, TuningPrior)`` tuples
    actions: list[tuple[str, AdmissionRuling | TuningPrior]] = field(
        default_factory=list
    )


@dataclass
class ReplayResult:
    """Reply to one replay-validation RPC."""

    outcome: ReplayOutcome | None
    #: the target's digest after the attempt (an applied replay changes
    #: its guard state and last-tuning stamp)
    digest: TenantDigest


class TickRecorder:
    """Host-side stand-in for the fleet arbiter during one tick.

    Rules on admissions with :func:`rule_admission` over the view the
    driver shipped and records every ruling and harvest in call order.
    Each also advances the view's own admission state, so a later
    ruling in the same tick sees it (a guard-escalation commit clears
    the tenant's defer count *before* the admission check of its tick).
    """

    def __init__(self, ctx: TenantContext) -> None:
        self._ctx = ctx
        self._view: ArbiterView | None = None
        self.actions: list[tuple[str, object]] = []

    def arm(self, view: ArbiterView) -> None:
        self._view = view

    # the organizer's AdmissionHook signature
    def admission(self, organizer, decision) -> tuple[bool, str]:
        view = self._view
        ruling = rule_admission(
            view, compute_digest(self._ctx), decision.trigger
        )
        self.actions.append((RULING, ruling))
        view.admission.apply_ruling(ruling)
        return ruling.admitted, ruling.reason

    # the organizer's CommitListener signature
    def commit(self, organizer, report) -> None:
        self.actions.append((HARVEST, build_harvest(self._ctx, report)))
        self._view.admission.note_commit(self._ctx.tenant)


class LocalHost:
    """Owns tenant contexts and answers the fleet's per-bin protocol.

    Every tick and replay reply carries the tenant's post-call digest,
    so the driver never reads a hosted context between bin boundaries.
    """

    def __init__(
        self, contexts: list[TenantContext], config: FleetConfig
    ) -> None:
        self._contexts = list(contexts)
        self._by_tenant = {ctx.tenant: ctx for ctx in self._contexts}
        self._config = config
        self._recorders = {
            ctx.tenant: TickRecorder(ctx) for ctx in self._contexts
        }
        self._pending: dict[str, PendingBin] = {}
        self.arm()

    def arm(self) -> None:
        """(Re)install the recorder hooks.

        Needed at start and whenever ``absorb_transfer`` swapped a
        context's organizer under the host: a pickle leaves the hooks
        behind, so the absorbed organizer arrives with none.
        """
        for ctx in self._contexts:
            recorder = self._recorders[ctx.tenant]
            ctx.organizer.set_admission(
                recorder.admission if self._config.arbitrate else None
            )
            ctx.organizer.set_commit_listener(recorder.commit)

    def execute_all(self, bin_index: int) -> None:
        """Run every hosted tenant's execute phase for ``bin_index``."""
        for ctx in self._contexts:
            self._pending[ctx.tenant] = ctx.simulation.execute_bin(bin_index)

    def tick(self, tenant: str, view: ArbiterView) -> TickResult:
        """Tick one tenant against a frozen arbiter view (barrier order)."""
        ctx = self._by_tenant[tenant]
        recorder = self._recorders[tenant]
        recorder.arm(view)
        record = ctx.simulation.finish_bin(self._pending.pop(tenant))
        # hand the list over and start a fresh one: whatever is recorded
        # before the next tick (a pass driven by hand between bins) rides
        # along with that tick instead of landing on a list the driver
        # has already applied
        actions, recorder.actions = recorder.actions, []
        return TickResult(
            record=record, digest=compute_digest(ctx), actions=actions
        )

    def replay(self, tenant: str, prior: TuningPrior) -> ReplayResult:
        """Validate (and maybe apply) a prior on one hosted tenant."""
        ctx = self._by_tenant[tenant]
        outcome = attempt_replay(ctx, prior)
        return ReplayResult(outcome=outcome, digest=compute_digest(ctx))

    def snapshot(self) -> list[tuple[str, str, bytes]]:
        """Pickle every tenant: (tenant, SHA-256 of the pickle, pickle).

        Nothing on a live context changes, so the host keeps running.
        """
        blobs = []
        for ctx in self._contexts:
            blob = ctx.transfer_snapshot()
            blobs.append((ctx.tenant, blob_digest(blob), blob))
        return blobs


def _worker_main(conn, contexts: list[TenantContext], config: FleetConfig):
    """One worker: a :class:`LocalHost` answering the parent's RPCs."""
    try:
        # replaces the hooks inherited from the parent's host: decisions
        # in this process come from the shipped views, nothing else
        host = LocalHost(contexts, config)
        handlers = {
            "execute": host.execute_all,
            "tick": host.tick,
            "replay": host.replay,
            "snapshot": host.snapshot,
        }
        while True:
            cmd, *args = conn.recv()
            if cmd == "stop":
                conn.send(("ok",))
                return
            if cmd not in handlers:  # pragma: no cover - protocol guard
                conn.send(("error", f"unknown command {cmd!r}"))
                return
            conn.send(("ok", handlers[cmd](*args)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass


class FleetWorkerPool:
    """Forked :class:`LocalHost` workers, each owning a round-robin slice
    of the tenants, behind the same per-bin protocol.

    The pool is **supervised**: every parent-side wait on a worker is a
    poll-with-timeout loop interleaved with ``is_alive()`` checks, so a
    SIGKILL'd (or wedged) worker surfaces as a :class:`WorkerCrashed`
    within a poll interval instead of hanging the fleet forever on a
    blocking ``recv``. The pool itself does not recover — the fleet
    driver owns the restore point and the deterministic bin
    re-execution — it only detects, reports, and tears down.
    """

    def __init__(
        self,
        contexts: list[TenantContext],
        config: FleetConfig,
        workers: int | None = None,
        *,
        registry: MetricRegistry,
        on_event: Callable[[dict], None],
    ) -> None:
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise RuntimeError(
                "parallel='process' needs the fork start method (tenant "
                "workloads hold closures that cannot pickle); use "
                "parallel='serial' on this platform"
            ) from exc
        self._on_event = on_event
        self._hard_kills = registry.counter(WORKER_HARD_KILLS)
        n_workers = max(
            1, min(workers or os.cpu_count() or 1, len(contexts))
        )
        assignments: list[list[TenantContext]] = [
            [] for _ in range(n_workers)
        ]
        self._owner: dict[str, int] = {}
        for i, ctx in enumerate(contexts):
            assignments[i % n_workers].append(ctx)
            self._owner[ctx.tenant] = i % n_workers
        self._tenants_of: list[tuple[str, ...]] = [
            tuple(ctx.tenant for ctx in owned) for owned in assignments
        ]
        self._conns = []
        self._procs = []
        for owned in assignments:
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(
                target=_worker_main,
                args=(child_conn, owned, config),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def tenants_of(self, worker: int) -> tuple[str, ...]:
        """Tenant ids owned by ``worker``."""
        return self._tenants_of[worker]

    def _emit(self, kind: str, **data) -> None:
        self._on_event({"kind": kind, **data})

    def _crashed(self, worker: int, reason: str) -> WorkerCrashed:
        return WorkerCrashed(worker, self._tenants_of[worker], reason)

    def _send(self, worker: int, msg) -> None:
        try:
            self._conns[worker].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._crashed(worker, f"send failed: {exc}") from exc

    def _recv(self, worker: int):
        """Wait for one reply, supervising the worker while waiting.

        Polls with a short interval instead of blocking: a dead worker
        raises :class:`WorkerCrashed` immediately (EOF or liveness
        check), and a worker silent past ``RPC_TIMEOUT_S`` is killed
        and reported the same way — a hung barrier becomes a recoverable
        fault instead of a deadlock.
        """
        conn = self._conns[worker]
        proc = self._procs[worker]
        deadline = time.monotonic() + RPC_TIMEOUT_S
        while True:
            try:
                ready = conn.poll(_POLL_INTERVAL_S)
            except (OSError, EOFError) as exc:
                raise self._crashed(worker, f"pipe failed: {exc}") from exc
            if ready:
                break
            if not proc.is_alive():
                # the worker may have replied and then died: poll once
                # more before declaring the reply lost
                if conn.poll(0):
                    break
                raise self._crashed(
                    worker, f"process died (exit code {proc.exitcode})"
                )
            if time.monotonic() >= deadline:
                proc.kill()
                proc.join(timeout=STOP_TIMEOUT_S)
                raise self._crashed(
                    worker,
                    f"no reply within {RPC_TIMEOUT_S:.0f}s "
                    "(worker killed)",
                )
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise self._crashed(worker, f"died mid-reply: {exc}") from exc
        if reply[0] == "error":
            # the worker is alive but its command raised: a genuine bug,
            # not a process failure — surface it, don't retry the bin
            self.stop()
            raise RuntimeError(f"fleet worker failed:\n{reply[1]}")
        return reply[1] if len(reply) > 1 else None

    # ------------------------------------------------------------------
    # the per-bin protocol

    def execute_all(self, bin_index: int) -> None:
        """Run every tenant's execute phase for ``bin_index``, in parallel."""
        for worker in range(len(self._conns)):
            self._send(worker, ("execute", bin_index))
        for worker in range(len(self._conns)):
            self._recv(worker)

    def tick(self, tenant: str, view: ArbiterView) -> TickResult:
        """Tick one tenant against a frozen arbiter view (barrier order)."""
        worker = self._owner[tenant]
        self._send(worker, ("tick", tenant, view))
        return self._recv(worker)

    def replay(self, tenant: str, prior: TuningPrior) -> ReplayResult:
        """Validate (and maybe apply) a prior on its owning worker."""
        worker = self._owner[tenant]
        self._send(worker, ("replay", tenant, prior))
        return self._recv(worker)

    def snapshot(self) -> list[tuple[str, str, bytes]]:
        """Snapshot every tenant: (tenant, SHA-256 of the pickle, pickle).

        A snapshot changes nothing on a worker, so the pool stays usable
        for the next bin: a durable checkpoint takes one mid-run, and
        the merge back takes one as the last call before :meth:`stop`.
        """
        for worker in range(len(self._conns)):
            self._send(worker, ("snapshot",))
        collected: list[tuple[str, str, bytes]] = []
        for worker in range(len(self._conns)):
            collected.extend(self._recv(worker))
        return collected

    # ------------------------------------------------------------------
    # supervision and teardown

    @property
    def pids(self) -> tuple[int, ...]:
        """Worker process ids (tests signal workers directly)."""
        return tuple(proc.pid for proc in self._procs)

    def kill_worker(self, worker: int) -> None:
        """SIGKILL one worker — how a test delivers a worker crash.

        Nothing is cleaned up here on purpose: the next RPC touching the
        dead worker raises :class:`WorkerCrashed`, exercising exactly
        the detection path a real worker death would take.
        """
        os.kill(self._procs[worker].pid, signal.SIGKILL)

    def abandon(self) -> None:
        """Tear the pool down without the stop handshake.

        Crash recovery calls this: after a worker death the surviving
        workers hold post-crash partial state the fleet is about to
        discard, so there is nothing worth a graceful drain — terminate
        everyone, reap, and let the driver refork from its restore
        point.
        """
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for conn, proc in zip(self._conns, self._procs):
            conn.close()
            proc.join(timeout=STOP_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - kill fallback
                proc.kill()
                proc.join(timeout=STOP_TIMEOUT_S)
        self._conns = []
        self._procs = []

    def stop(self) -> None:
        """Shut the workers down gracefully (idempotent).

        Workers that ignore the stop handshake or outlive the join
        timeout are hard-killed — and that is *reported*, not silent: a
        ``worker_hard_kill`` structured event fires per kill and the
        ``worker_hard_kills`` counter moves, so a wedged worker at
        shutdown is observable instead of vanishing into a terminate().
        """
        for worker, (conn, proc) in enumerate(
            zip(self._conns, self._procs)
        ):
            try:
                if proc.is_alive():
                    conn.send(("stop",))
                    # bounded ack wait: a wedged worker must not turn
                    # shutdown into a hang
                    deadline = time.monotonic() + STOP_TIMEOUT_S
                    while not conn.poll(_POLL_INTERVAL_S):
                        if not proc.is_alive():
                            break
                        if time.monotonic() >= deadline:
                            break
            except (BrokenPipeError, EOFError, OSError):
                pass
            finally:
                conn.close()
        for worker, proc in enumerate(self._procs):
            proc.join(timeout=STOP_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                self._hard_kills.inc()
                self._emit(
                    "worker_hard_kill",
                    worker=worker,
                    pid=proc.pid,
                    tenants=self._tenants_of[worker],
                    phase="shutdown",
                )
                proc.join(timeout=STOP_TIMEOUT_S)
                if proc.is_alive():  # pragma: no cover - kill fallback
                    proc.kill()
                    proc.join(timeout=STOP_TIMEOUT_S)
        self._conns = []
        self._procs = []


class HostReplayTransport:
    """Replay transport over a tenant host plus the driver's digest cache.

    Digest-only gates read the cache (every entry is post-tick fresh);
    the expensive validate-then-apply attempt runs on the host that owns
    the tenant, whose reply refreshes the cache — so a replay applied
    earlier in the round is visible to every later cap check and gate.
    """

    def __init__(self, host, digests) -> None:
        self._host = host
        self._digests = digests

    def active_reconfigurations(self) -> int:
        return sum(1 for d in self._digests.values() if d.guard_active)

    def digest(self, tenant: str) -> TenantDigest:
        return self._digests[tenant]

    def attempt(self, prior: TuningPrior, tenant: str) -> ReplayOutcome | None:
        result = self._host.replay(tenant, prior)
        self._digests[tenant] = result.digest
        return result.outcome

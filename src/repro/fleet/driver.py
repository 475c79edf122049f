"""The fleet driver: N tenant loops ticked concurrently in simulated time.

Each tenant is one complete :class:`~repro.fleet.context.TenantContext`
— its own database, clock, driver, trace, and closed-loop simulation —
and the fleet driver advances all of them bin by bin: within a fleet
bin, tenants run **hot-first** (descending scheduled query volume, the
order the arbiter's budget should favour), then the arbiter gets one
replay round to push freshly harvested priors onto look-alike tenants.
Simulated time advances per tenant on its own clock; "concurrently"
means lockstep per bin, which keeps runs deterministic and makes a
one-tenant fleet bit-identical to the legacy
``ClosedLoopSimulation(db, trace, seed).run()`` loop (the golden tests
in ``tests/fleet/`` hold this on multiple seeds).

**One bin loop, two hosts.** Every fleet bin is the same attempt: all
tenants' *execute* phases run first — the only phase that scales with
cores — then the plugin ticks (where the self-management loop and the
fleet arbiter decide) rendezvous at a commit-ordered barrier, one
tenant at a time, hot-first, each against a frozen arbiter view whose
recorded rulings are applied before the next tenant ticks. Where the
tenant stacks live is the only difference between the modes
(:mod:`repro.fleet.parallel`): ``parallel="serial"`` (the default)
hosts every tenant in this process, ``"process"`` hosts them in forked
persistent workers and merges their state back before reporting.
Everything the arbiter reads about a tenant changes only at tick time,
so both are **bit-identical** — same bin records, same event streams,
same commits (``tests/fleet/test_parallel.py`` holds this on multiple
seeds).

Counters are read where they live: :meth:`FleetDriver.report` merges
the workers' state back and sums the tenant registries
(:func:`~repro.telemetry.metrics.rollup_counters`); nothing about them
travels with a tick, a replay or a snapshot.

:func:`build_fleet` is the canonical constructor: it lays out tenants
with :func:`~repro.fleet.workload.tenant_specs` (skewed volumes, shared
mix profiles), attaches one driver per tenant, and registers everything
with a :class:`~repro.fleet.arbiter.FleetOrganizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.driver import Driver, DriverConfig
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.simulation import BinRecord, ClosedLoopSimulation
from repro.core.triggers import (
    ForecastDriftTrigger,
    PeriodicTrigger,
    TuningTrigger,
)
from repro.fleet.arbiter import (
    FleetConfig,
    FleetOrganizer,
    ReplayOutcome,
    TenantDigest,
    compute_digest,
)
from repro.fleet.checkpoint import (
    CheckpointError,
    FleetCheckpoint,
    TenantState,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.fleet.context import TenantContext
from repro.fleet.parallel import (
    HARVEST,
    FleetWorkerPool,
    HostReplayTransport,
    LocalHost,
    WorkerCrashed,
)
from repro.fleet.workload import (
    TenantSpec,
    build_tenant_suite,
    build_tenant_trace,
    tenant_specs,
)
from repro.kpi.metrics import (
    CHECKPOINT_BYTES,
    CHECKPOINT_CORRUPTIONS_DETECTED,
    CHECKPOINT_RESTORES,
    CHECKPOINT_WRITES,
    FLEET_TENANT_QUARANTINES,
    WORKER_RESTARTS,
)
from repro.telemetry.metrics import MetricRegistry, rollup_counters
from repro.util.lru import CacheStats

#: Execution modes accepted by :class:`FleetDriver`.
PARALLEL_MODES = ("serial", "process")
#: Worker crashes one supervised step recovers from; the next one
#: propagates as :class:`WorkerCrashed`.
MAX_CRASH_RECOVERIES = 3


@dataclass
class TenantSummary:
    """One tenant's end-of-run accounting for the fleet report."""

    tenant: str
    profile: int
    volume_scale: float
    queries: int
    mean_query_ms: float
    #: mean over the final window (post-tuning steady state)
    final_mean_query_ms: float
    full_passes: int
    replays: int
    reconfigurations: int
    whatif: CacheStats
    plan: CacheStats
    events: int


@dataclass
class FleetReport:
    """Per-tenant summaries plus the explicit fleet rollup."""

    summaries: list[TenantSummary]
    #: aggregated what-if cache stats (explicit per-tenant sum)
    whatif: CacheStats
    #: aggregated compiled-plan cache stats (explicit per-tenant sum)
    plan: CacheStats
    #: counters summed across every tenant's registry
    counters: dict[str, float] = field(default_factory=dict)
    #: fleet-infrastructure counters (checkpoint writes/restores, worker
    #: restarts, quarantines) — kept in the driver's own registry, never
    #: in tenant registries, so checkpointed and plain runs report
    #: bit-identical tenant ``counters``
    fleet_counters: dict[str, float] = field(default_factory=dict)
    #: arbitration totals (priors, replays, full passes)
    arbitration: dict[str, object] = field(default_factory=dict)
    replay_outcomes: tuple[ReplayOutcome, ...] = ()
    #: the final-window size actually used for ``final_mean_query_ms``
    final_window_bins: int = 4
    #: True when fewer bins ran than the requested window, so the
    #: "final" means still include warm-up bins' worth of clamping
    final_window_clamped: bool = False

    @property
    def total_queries(self) -> int:
        return sum(s.queries for s in self.summaries)

    @property
    def total_full_passes(self) -> int:
        return sum(s.full_passes for s in self.summaries)

    @property
    def total_replays(self) -> int:
        return sum(s.replays for s in self.summaries)


def _load_source(source: FleetCheckpoint | Path | str) -> FleetCheckpoint:
    """Resolve a checkpoint object, file, or directory (newest loadable
    epoch wins; file-level corruption falls back to older ones)."""
    if not isinstance(source, (str, Path)):
        return source
    path = Path(source)
    if path.is_dir():
        return latest_checkpoint(path)[0]
    return load_checkpoint(path)


class FleetDriver:
    """Ticks every tenant's closed loop, hot-first, bin by bin."""

    def __init__(
        self,
        contexts: list[TenantContext],
        config: FleetConfig | None = None,
        parallel: str | None = None,
        workers: int | None = None,
        checkpoint_dir: Path | str | None = None,
        checkpoint_every: int = 0,
    ) -> None:
        if not contexts:
            raise ValueError("a fleet needs at least one tenant context")
        for ctx in contexts:
            if ctx.trace is None or ctx.simulation is None:
                raise ValueError(
                    f"tenant {ctx.tenant!r} has no workload assigned "
                    "(trace/simulation are fleet slots; see build_fleet)"
                )
        mode = parallel or "serial"
        if mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {mode!r} "
                f"(expected one of {PARALLEL_MODES})"
            )
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self._mode = mode
        self._workers = workers
        self._contexts = list(contexts)
        self._arbiter = FleetOrganizer(config)
        for ctx in self._contexts:
            self._arbiter.register(ctx)
        self._n_bins = min(len(ctx.trace.bins) for ctx in self._contexts)
        #: the only bin :meth:`run_bin` will accept next (re-entry guard)
        self._next_bin = 0
        # the in-process host: runs the bins in serial mode; in process
        # mode it snapshots the parent contexts while no pool is forked
        self._local = LocalHost(self._contexts, self._arbiter.config)
        self._pool: FleetWorkerPool | None = None
        #: every tenant's digest as of its last tick or replay; empty
        #: means "reseed from the parent contexts before the next bin"
        self._digests: dict[str, TenantDigest] = {}
        # fault-tolerance machinery: counters and events live in the
        # fleet's OWN registry/log, never in tenant ones — a checkpointed
        # run's tenant streams stay bit-identical to a plain run's
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._checkpoint_every = checkpoint_every
        self._fleet_registry = MetricRegistry()
        self._fleet_events: list[dict] = []
        self._ckpt_writes = self._fleet_registry.counter(CHECKPOINT_WRITES)
        self._ckpt_bytes = self._fleet_registry.counter(CHECKPOINT_BYTES)
        self._ckpt_restores = self._fleet_registry.counter(
            CHECKPOINT_RESTORES
        )
        self._ckpt_corruptions = self._fleet_registry.counter(
            CHECKPOINT_CORRUPTIONS_DETECTED
        )
        self._worker_restarts = self._fleet_registry.counter(WORKER_RESTARTS)
        self._quarantines = self._fleet_registry.counter(
            FLEET_TENANT_QUARANTINES
        )
        #: the newest bin boundary the run holds a bundle of while a pool
        #: is live — the pre-fork capture, or a durable checkpoint taken
        #: since; a worker crash rolls back to it (see :meth:`_supervised`)
        self._restore_point: FleetCheckpoint | None = None
        #: build_fleet kwargs when constructed through it (rides inside
        #: durable checkpoints so resume() can rebuild the layout)
        self._build_args: dict[str, object] | None = None

    @property
    def next_bin(self) -> int:
        """Index of the next unrun fleet bin (== bins run so far)."""
        return self._next_bin

    @property
    def tenants(self) -> tuple[TenantContext, ...]:
        return tuple(self._contexts)

    @property
    def arbiter(self) -> FleetOrganizer:
        return self._arbiter

    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def fleet_events(self) -> tuple[dict, ...]:
        """Fleet-infrastructure events (checkpoints, recoveries, kills)."""
        return tuple(self._fleet_events)

    @property
    def fleet_counters(self) -> dict[str, float]:
        """Current values of the fleet-infrastructure counters."""
        return self._fleet_registry.snapshot_counters()

    @property
    def checkpoint_dir(self) -> Path | None:
        return self._checkpoint_dir

    def tenant(self, tenant_id: str) -> TenantContext:
        for ctx in self._contexts:
            if ctx.tenant == tenant_id:
                return ctx
        raise KeyError(tenant_id)

    # ------------------------------------------------------------------
    # the fleet loop

    def run_bin(self, index: int) -> dict[str, BinRecord]:
        """Advance every tenant one bin, then run one replay round.

        Bins must run in order, each exactly once: re-running a bin
        would duplicate records and replay simulated time, so anything
        but the next unrun bin (see :attr:`next_bin`) is an error.
        """
        if index != self._next_bin:
            raise ValueError(
                f"fleet bins run in order, each exactly once: expected "
                f"bin {self._next_bin}, got {index}"
            )
        if index >= self._n_bins:
            raise ValueError(
                f"bin {index} is out of range (fleet has {self._n_bins})"
            )
        records = self._supervised(self._bin_attempt)
        if (
            self._checkpoint_dir is not None
            and self._checkpoint_every > 0
            and (index + 1) % self._checkpoint_every == 0
        ):
            self._checkpoint_periodic()
        return records

    def _supervised(self, step):
        """Run ``step`` at the current bin boundary, surviving worker death.

        A crash is recovered by deterministic re-execution from the
        newest boundary the run already has: roll back to the restore
        point (the pre-fork capture, or the last durable checkpoint
        written since), re-run the bins between it and the boundary the
        caller stood at on a freshly forked pool, and try ``step``
        again. Everything that talks to workers goes through here — the
        next bin, the merge back, a checkpoint's capture — so the re-run
        window is ``checkpoint_every`` bins, or the bins since the fork
        without checkpoints, and nothing is snapshotted for recovery's
        sake alone. The golden tests hold that a SIGKILL'd worker leaves
        bin records, events, and final configurations bit-identical to
        an undisturbed run. In serial mode this is one call of ``step``:
        a :class:`LocalHost` never raises :class:`WorkerCrashed`.
        """
        boundary = self._next_bin
        recoveries = 0
        while True:
            try:
                while self._next_bin < boundary:
                    self._bin_attempt()
                return step()
            except WorkerCrashed as crash:
                recoveries += 1
                if recoveries > MAX_CRASH_RECOVERIES:
                    raise
                # there always is a restore point: only a pool raises
                # WorkerCrashed, and _host() captures before it forks
                ckpt = self._restore_point
                self._worker_restarts.inc()
                self._fleet_events.append(
                    {
                        "kind": "worker_crash_recovery",
                        "worker": crash.worker,
                        "tenants": crash.tenants,
                        "reason": crash.reason,
                        "resume_bin": ckpt.next_bin,
                    }
                )
                self._restore_in_place(ckpt)

    def _bin_attempt(self) -> dict[str, BinRecord]:
        """One attempt at the next unrun bin: execute all, then the tick
        barrier.

        The canonical arbiter stays here: each tick ships a frozen view
        to the tenant's host, and the rulings/harvests the tick recorded
        are applied back — in tick order — before the next tenant ticks,
        so the arbiter state evolves the same wherever the tenants live.
        The bin ends with one replay round over the digest cache.
        """
        index = self._next_bin
        host = self._host()
        # a recovery rolls the arbiter back to its boundary as well, so
        # a re-run bin begins like a first run
        self._arbiter.begin_bin()
        host.execute_all(index)
        # hot-first: descending scheduled volume, stable by tenant id
        order = sorted(
            self._contexts,
            key=lambda ctx: (-ctx.trace.bins[index].total, ctx.tenant),
        )
        records: dict[str, BinRecord] = {}
        for ctx in order:
            result = host.tick(
                ctx.tenant, self._arbiter.view(digests=self._digests)
            )
            for kind, payload in result.actions:
                if kind == HARVEST:
                    self._arbiter.ingest_harvest(payload)
                else:
                    self._arbiter.apply_ruling(payload)
            self._digests[ctx.tenant] = result.digest
            ctx.records.append(result.record)
            records[ctx.tenant] = result.record
        self._arbiter.replay_round(HostReplayTransport(host, self._digests))
        self._next_bin = index + 1
        return records

    def run(self, stop: int | None = None) -> FleetReport:
        """Run the fleet to bin ``stop`` and return the rollup report.

        Resumable: bins already run (via :meth:`run_bin` or an earlier
        ``run``) are never re-run, so calling ``run()`` twice reports
        the same single pass instead of doubling every record.
        ``stop=0`` runs nothing (an empty report); negative values are
        an error.
        """
        if stop is None:
            last = self._n_bins
        elif stop < 0:
            raise ValueError(f"stop must be >= 0, got {stop}")
        else:
            last = min(stop, self._n_bins)
        for index in range(self._next_bin, last):
            self.run_bin(index)
        return self.report()

    # ------------------------------------------------------------------
    # host lifecycle

    def _host(self):
        """The tenant host the next bin runs on.

        Serial mode: the in-process host. Process mode: the worker pool,
        forked on demand — the crash restore point is captured *before*
        forking, when the parent contexts are exact copies of what the
        workers start from, so a crash at any bin of the pool's life has
        a boundary to roll back to. The digest cache is empty exactly
        when the parent contexts are current (start, restore, pool
        merged back), so that is when it is reseeded from them.
        """
        if not self._digests:
            self._digests = {
                ctx.tenant: compute_digest(ctx) for ctx in self._contexts
            }
        if self._mode == "serial":
            return self._local
        if self._pool is None:
            self._restore_point = self._capture_checkpoint()
            self._pool = FleetWorkerPool(
                self._contexts,
                self._arbiter.config,
                workers=self._workers,
                registry=self._fleet_registry,
                on_event=self._fleet_events.append,
            )
        return self._pool

    def sync_workers(self) -> None:
        """Merge worker state back into the parent contexts (no-op when
        no pool is running).

        After this the parent contexts carry everything the workers did
        — clocks, events, guard ledgers, caches — and the pool is gone;
        the next process-mode bin forks a fresh one from the merged
        state. Called automatically by :meth:`report` and
        :meth:`labelled_metrics`. A worker that dies during the merge is
        recovered like a mid-bin crash (:meth:`_supervised`): the bins
        since the restore point re-run on a fresh pool, and the merge
        runs again.
        """
        self._supervised(self._merge_workers)

    def _merge_workers(self) -> None:
        pool = self._pool
        if pool is None:
            # nothing forked — or a recovery landed on this very
            # boundary, and the restored contexts are the merged state
            return
        collected = pool.snapshot()
        self._pool = None
        try:
            for tenant, _sha256, blob in collected:
                self.tenant(tenant).absorb_transfer(blob)
            self._local.arm()
        finally:
            pool.stop()
        self._digests = {}

    # ------------------------------------------------------------------
    # fault tolerance: capture, durable checkpoints, restore, recovery

    def _capture_checkpoint(self) -> FleetCheckpoint:
        """Bundle the fleet's current bin-boundary state.

        The tenant blobs come from a non-destructive snapshot of
        whichever host holds the live tenant stacks — the worker pool
        when one is forked, the in-process host otherwise — so the run
        continues bit-identically to one that never checkpointed.
        """
        host = self._pool if self._pool is not None else self._local
        states = {
            tenant: TenantState(
                tenant, blob, sha256, records=list(self.tenant(tenant).records)
            )
            for tenant, sha256, blob in host.snapshot()
        }
        return FleetCheckpoint(
            next_bin=self._next_bin,
            config=self._arbiter.config,
            arbiter=self._arbiter.state_snapshot(),
            tenants=[states[ctx.tenant] for ctx in self._contexts],
            build_args=self._build_args,
        )

    def checkpoint(self, directory: Path | str | None = None) -> Path:
        """Write a durable checkpoint of the current bin boundary.

        Uses ``directory`` (or the driver's ``checkpoint_dir``) and
        returns once the file is on disk.
        """
        return self._checkpoint_periodic(directory)

    def _prepare_checkpoint(self) -> FleetCheckpoint:
        """Capture the bundle; while a pool is live it becomes the
        restore point."""
        ckpt = self._capture_checkpoint()
        if self._pool is not None:
            # a newer boundary than the fork's, already paid for: a
            # crash from here on re-runs the bins since this checkpoint
            self._restore_point = ckpt
        return ckpt

    def _checkpoint_periodic(
        self, directory: Path | str | None = None
    ) -> Path:
        """Durable checkpoint at a bin boundary, written where it is taken.

        Capture (supervised: it is a worker RPC while a pool is live),
        encode, write, fsync and atomic rename all happen before this
        returns — the bundle of a four-tenant fleet is a few megabytes
        and lands in milliseconds, a handful of times a run — so a
        failed write raises :class:`CheckpointError` here, at the call,
        with the run itself intact at the boundary it stood at.
        """
        target = Path(directory) if directory is not None else self._checkpoint_dir
        if target is None:
            raise CheckpointError(
                "no checkpoint directory (pass one, or construct the "
                "fleet with checkpoint_dir=...)"
            )
        written = self._supervised(self._prepare_checkpoint)
        try:
            path = write_checkpoint(written, target)
            self._ckpt_bytes.inc(path.stat().st_size)
        except OSError as exc:
            raise CheckpointError(f"checkpoint write failed: {exc}") from exc
        self._ckpt_writes.inc()
        self._fleet_events.append(
            {
                "kind": "checkpoint",
                "epoch": written.next_bin,
                "path": str(path),
            }
        )
        return path

    def restore(self, source: FleetCheckpoint | Path | str) -> None:
        """Adopt the state of a checkpoint (object, file, or directory).

        A directory picks its newest loadable checkpoint (file-level
        corruption falls back to older epochs). Per-tenant blobs are
        verified here: a tenant whose blob fails its checksum — or fails
        to unpickle — is force-quarantined (RECOVERY event, arbiter
        exclusion) while the rest of the fleet restores normally.
        """
        ckpt = _load_source(source)
        self._restore_in_place(ckpt)
        self._ckpt_restores.inc()
        self._fleet_events.append(
            {"kind": "restore", "epoch": ckpt.next_bin}
        )

    def _restore_in_place(self, ckpt: FleetCheckpoint) -> None:
        """Reset the fleet to ``ckpt``'s bin boundary, tenant by tenant.

        Any live workers are abandoned without a drain: what they hold
        is about to be replaced.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.abandon()
        self._arbiter.restore_state(ckpt.arbiter)
        for ctx in self._contexts:
            try:
                state = ckpt.state_for(ctx.tenant)
            except KeyError:
                raise CheckpointError(
                    f"checkpoint has no state for tenant {ctx.tenant!r} "
                    "(was it taken from a different fleet layout?)"
                ) from None
            # one attempt: the bytes and the unpickling are what they
            # are, and a failed absorb has swapped nothing in
            if not state.verify():
                self._ckpt_corruptions.inc()
                self._quarantine_tenant(
                    ctx, "snapshot blob failed its checksum"
                )
            else:
                try:
                    ctx.absorb_transfer(state.blob)
                except Exception as exc:
                    self._quarantine_tenant(
                        ctx, f"snapshot failed to apply: {exc}"
                    )
            ctx.records[:] = list(state.records)
        self._local.arm()  # absorbed contexts carry fresh organizers
        self._next_bin = ckpt.next_bin
        self._digests = {}

    def _quarantine_tenant(self, ctx: TenantContext, reason: str) -> None:
        """Degrade gracefully: exclude one unrestorable tenant.

        The tenant keeps whatever state it has (stale, or fresh-built on
        resume) and keeps running, but the arbiter stops admitting its
        passes, harvesting its priors, and replaying onto it — a
        corrupted snapshot must not poison fleet decisions.
        """
        self._arbiter.quarantine_tenant(ctx.tenant)
        self._quarantines.inc()
        ctx.events.log(
            ctx.database.clock.now_ms,
            EventKind.RECOVERY,
            f"tenant force-quarantined: {reason}",
        )
        self._fleet_events.append(
            {
                "kind": "tenant_quarantine",
                "tenant": ctx.tenant,
                "reason": reason,
            }
        )

    @classmethod
    def resume(
        cls,
        source: FleetCheckpoint | Path | str,
        *,
        parallel: str | None = None,
        workers: int | None = None,
        checkpoint_dir: Path | str | None = None,
        checkpoint_every: int = 0,
        **build_overrides,
    ) -> "FleetDriver":
        """Rebuild a fleet from a durable checkpoint and adopt its state.

        ``source`` is a checkpoint object, a checkpoint file, or a
        checkpoint directory (newest loadable epoch wins). The workload
        layout is rebuilt from the ``build_args`` recorded by
        :func:`build_fleet`; the continuation is bit-identical to the
        original run never having stopped (held by
        ``tests/fleet/test_checkpoint.py`` across seeds and modes).
        """
        ckpt = _load_source(source)
        if ckpt.build_args is None:
            raise CheckpointError(
                "checkpoint carries no build_fleet arguments (the fleet "
                "was hand-assembled); rebuild it the same way and call "
                "restore() instead"
            )
        build_args = dict(ckpt.build_args)
        build_args.update(build_overrides)
        build_args.setdefault("config", ckpt.config)
        fleet = build_fleet(
            parallel=parallel,
            workers=workers,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            **build_args,
        )
        fleet.restore(ckpt)
        return fleet

    # ------------------------------------------------------------------
    # reporting

    def report(self, final_window_bins: int = 4) -> FleetReport:
        """Roll the fleet up; ``final_window_bins`` is the steady-state
        window for ``final_mean_query_ms``.

        When fewer bins have run than the requested window, the window
        is clamped to the bins that exist and the report says so
        (``final_window_clamped``) — a 2-bin run must not quietly sell
        its warm-up bins as a "final" steady state.
        """
        if final_window_bins < 1:
            raise ValueError(
                f"final_window_bins must be >= 1, got {final_window_bins}"
            )
        self.sync_workers()
        window = min(final_window_bins, self._next_bin)
        summaries: list[TenantSummary] = []
        for ctx in self._contexts:
            records: list[BinRecord] = list(ctx.records)
            queries = sum(r.queries_executed for r in records)
            workload = sum(r.workload_ms for r in records)
            tail = records[-window:] if window > 0 else []
            tail_queries = sum(r.queries_executed for r in tail)
            tail_workload = sum(r.workload_ms for r in tail)
            summaries.append(
                TenantSummary(
                    tenant=ctx.tenant,
                    profile=ctx.profile,
                    volume_scale=ctx.volume_scale,
                    queries=queries,
                    mean_query_ms=workload / queries if queries else 0.0,
                    final_mean_query_ms=(
                        tail_workload / tail_queries if tail_queries else 0.0
                    ),
                    full_passes=self._arbiter.full_passes(ctx.tenant),
                    replays=self._arbiter.replays(ctx.tenant),
                    reconfigurations=ctx.database.counters.reconfigurations,
                    whatif=ctx.whatif_stats,
                    plan=ctx.plan_stats,
                    events=len(ctx.events),
                )
            )
        return FleetReport(
            summaries=summaries,
            whatif=CacheStats.aggregate(s.whatif for s in summaries),
            plan=CacheStats.aggregate(s.plan for s in summaries),
            counters=rollup_counters(
                {ctx.tenant: ctx.telemetry.registry for ctx in self._contexts}
            ),
            fleet_counters=self._fleet_registry.snapshot_counters(),
            arbitration=self._arbiter.summary(),
            replay_outcomes=self._arbiter.outcomes,
            final_window_bins=window,
            final_window_clamped=window < final_window_bins,
        )

    def labelled_metrics(self) -> dict[str, float]:
        """Every tenant's metrics in one flat ``tenant::name`` mapping."""
        self.sync_workers()
        merged: dict[str, float] = {}
        for ctx in self._contexts:
            merged.update(
                ctx.telemetry.registry.snapshot_labelled(ctx.tenant)
            )
        return merged


# ----------------------------------------------------------------------
# construction

#: Defaults mirrored by the golden tests' legacy arm — change together.
DEFAULT_TUNE_EVERY_BINS = 6
DEFAULT_INDEX_BUDGET_MIB = 64.0


def default_tenant_driver(
    spec: TenantSpec,
    features=None,
    triggers: list[TuningTrigger] | None = None,
    tune_every_bins: int = DEFAULT_TUNE_EVERY_BINS,
    index_budget_mib: float = DEFAULT_INDEX_BUDGET_MIB,
    organizer: OrganizerConfig | None = None,
    policy=None,
) -> Driver:
    """The standard per-tenant driver, labelled with the tenant id.

    Mirrors the single-tenant CLI setup (periodic + forecast-drift
    triggers, index memory budget, 4-bin horizon); the golden tests
    construct the legacy arm with exactly these parameters. ``policy``
    (a :class:`~repro.policy.objectives.Policy`) switches the tenant's
    organizer to goal-driven planning; its passes are fleet-arbitrated
    like any other non-urgent trigger.
    """
    from repro.configuration import INDEX_MEMORY
    from repro.configuration.constraints import ConstraintSet, ResourceBudget
    from repro.tuning import standard_features
    from repro.util.units import MIB

    return Driver(
        list(features) if features else standard_features(),
        constraints=ConstraintSet(
            [ResourceBudget(INDEX_MEMORY, index_budget_mib * MIB)]
        ),
        triggers=(
            list(triggers)
            if triggers is not None
            else [
                PeriodicTrigger(every_ms=tune_every_bins * 60_000),
                ForecastDriftTrigger(relative_threshold=0.25),
            ]
        ),
        config=DriverConfig(
            tenant=spec.tenant_id,
            organizer=organizer
            or OrganizerConfig(
                horizon_bins=4, min_history_bins=4, cooldown_ms=3 * 60_000
            ),
            policy=policy,
        ),
    )


def build_fleet(
    n_tenants: int,
    skew: float = 0.8,
    seed: int = 7,
    bins: int = 24,
    rows: int = 20_000,
    suite: str = "retail",
    config: FleetConfig | None = None,
    lookalike_fraction: float = 0.75,
    tune_every_bins: int = DEFAULT_TUNE_EVERY_BINS,
    index_budget_mib: float = DEFAULT_INDEX_BUDGET_MIB,
    organizer: OrganizerConfig | None = None,
    specs: list[TenantSpec] | None = None,
    parallel: str | None = None,
    workers: int | None = None,
    policy=None,
    checkpoint_dir: Path | str | None = None,
    checkpoint_every: int = 0,
) -> FleetDriver:
    """Build a ready-to-run fleet of ``n_tenants`` skewed tenants.

    Tenant 0 is the hot tenant (volume scale 1.0, profile 0, data and
    trace seeds equal to ``seed``); volumes fall off as
    ``(i + 1) ** -skew``. Each tenant gets its own database, driver (and
    therefore TenantContext), trace, and simulation; the fleet driver
    registers them all with one arbiter built from ``config``.

    Pass explicit ``specs`` to override the layout entirely (e.g. two
    digital-twin tenants sharing every seed — the replay identity tests).
    """
    custom_layout = (
        specs is not None or organizer is not None or policy is not None
    )
    if specs is None:
        specs = tenant_specs(
            n_tenants,
            skew=skew,
            seed=seed,
            lookalike_fraction=lookalike_fraction,
        )
    contexts: list[TenantContext] = []
    for spec in specs:
        tenant_suite = build_tenant_suite(spec, suite=suite, rows=rows)
        trace = build_tenant_trace(spec, tenant_suite, bins)
        db = tenant_suite.database
        driver = default_tenant_driver(
            spec,
            tune_every_bins=tune_every_bins,
            index_budget_mib=index_budget_mib,
            organizer=organizer,
            policy=policy,
        )
        db.plugin_host.attach(driver)
        ctx = driver.context
        ctx.driver = driver
        ctx.trace = trace
        ctx.simulation = ClosedLoopSimulation(db, trace, seed=spec.seed)
        ctx.profile = spec.profile
        ctx.volume_scale = spec.volume_scale
        contexts.append(ctx)
    fleet = FleetDriver(
        contexts,
        config=config,
        parallel=parallel,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    if not custom_layout:
        # the layout is fully derivable from these kwargs, so durable
        # checkpoints can carry them and FleetDriver.resume can rebuild
        # the same fleet without the caller restating anything
        fleet._build_args = {
            "n_tenants": n_tenants,
            "skew": skew,
            "seed": seed,
            "bins": bins,
            "rows": rows,
            "suite": suite,
            "lookalike_fraction": lookalike_fraction,
            "tune_every_bins": tune_every_bins,
            "index_budget_mib": index_budget_mib,
        }
    return fleet

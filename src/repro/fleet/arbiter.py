"""The fleet organizer: tuning-budget arbitration and shared priors.

The paper's Organizer is "the arbiter of constraints and ordering" for
one database; at fleet scale something must arbitrate *across* tenants.
:class:`FleetOrganizer` does three things, all through the two hooks the
per-tenant organizer exposes (admission + commit listener) and the
:meth:`~repro.core.organizer.Organizer.replay_pass` entry point — it
never reaches into another tenant's components:

- **budget arbitration** — hot-tenant-first scheduling (within a
  look-alike cluster, only the hottest tenant initiates full tuning
  passes; colder tenants wait for its prior, with a starvation bound)
  and a fleet-wide cap on concurrent reconfigurations (tenants with a
  commit on probation count against it);
- **prior sharing** — every committed pass is harvested as a
  :class:`TuningPrior` (its forward actions plus the source tenant's
  observed mix — the cluster-level forecast model, fitted once per
  cluster rather than once per tenant);
- **prior replay** — after each fleet bin, priors are what-if validated
  on look-alike tenants (total-variation distance between observed
  mixes within :data:`CLUSTER_TV`) by pricing the cluster
  mix rescaled to the target tenant's volume, and applied through
  ``replay_pass`` only when the validation predicts an improvement.
  Replayed commits enter guard probation like any tuned pass, so the
  regression watchdog protects replay targets too.

Urgent work is never arbitrated: SLA-violation triggers are admitted
unconditionally and guard escalations bypass admission entirely.

**One decision path.** The decision logic is pure functions over small
picklable snapshots, so a tenant tick can run wherever the tenant's
stack lives — in this process or in a fork worker — and rule
identically: :func:`compute_digest` captures the slice of a tenant
another tenant's admission may read (hotness, observed mix, guard state
— values that only change at tick time), :class:`ArbiterView` freezes
the arbiter's mutable state plus all digests, and
:func:`rule_admission` / :func:`replay_gate` / :func:`attempt_replay`
decide from those snapshots alone. The tenant host
(:mod:`repro.fleet.parallel`) records each ruling and harvest; the
fleet driver applies them here in tick order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.configuration.actions import Action
from repro.configuration.delta import ConfigurationDelta
from repro.core.organizer import Organizer, OrganizerRunReport
from repro.core.triggers import SlaViolationTrigger
from repro.fleet.context import TenantContext
from repro.forecasting.scenarios import Forecast, WorkloadScenario
from repro.guard.forecast_miss import total_variation
from repro.kpi.metrics import QUERIES_EXECUTED


@dataclass(frozen=True)
class FleetConfig:
    """Policy parameters of the fleet organizer."""

    #: fleet-wide bound on tenants under active reconfiguration (an open
    #: probation commit counts; the candidate itself does not, so a
    #: one-tenant fleet is never capped)
    max_concurrent_reconfigurations: int = 3
    #: harvest priors from committed passes and replay them on
    #: look-alike tenants (the cheap path of fleet tuning)
    share_priors: bool = True
    #: arbitrate admissions at all; off = every tenant tunes
    #: independently (the bench baseline)
    arbitrate: bool = True


#: total-variation bound between observed mixes for two tenants to
#: count as look-alike (one workload cluster)
CLUSTER_TV = 0.35
#: a cold tenant deferred this many times while waiting for a cluster
#: prior is admitted to tune itself (starvation bound)
MAX_DEFER_BINS = 8
#: observation window (bins) for mixes and volume ranking
MIX_WINDOW_BINS = 6
#: required predicted improvement fraction for a replay to apply
#: (0 = any strict improvement)
MIN_REPLAY_IMPROVEMENT = 0.0
#: fraction of the prior's mix mass the target tenant must be able
#: to price (sample queries observed) before validation is trusted
MIN_REPLAY_COVERAGE = 0.9


@dataclass(frozen=True)
class TuningPrior:
    """One committed pass, harvested for replay on look-alike tenants."""

    #: tenant whose organizer committed the pass
    source: str
    #: features the pass tuned (probation bookkeeping on replay targets)
    features: tuple[str, ...]
    #: forward actions of the committed pass, in application order
    actions: tuple[Action, ...]
    #: the source tenant's observed template mix at commit time — the
    #: cluster-level forecast model the replay validation prices against
    mix: dict[str, float]
    #: the source pass's predicted benefit (diagnostics only)
    predicted_benefit_ms: float
    #: source-tenant simulated time of the commit
    created_at_ms: float
    #: assigned when the arbiter admits the harvest as a prior
    prior_id: int | None = None


@dataclass
class ReplayOutcome:
    """What one validate-then-apply attempt on one tenant did."""

    prior_id: int
    source: str
    tenant: str
    applied: bool
    reason: str
    cost_before_ms: float = 0.0
    cost_after_ms: float = 0.0


# ----------------------------------------------------------------------
# picklable decision snapshots (shared by the serial and parallel paths)


@dataclass(frozen=True)
class TenantDigest:
    """The slice of one tenant the arbiter reads about *other* tenants.

    Every field changes only inside the tenant's plugin tick, so a
    digest captured after a tick stays exact until the tenant's next
    tick — the invariant the parallel fleet's barrier relies on.
    """

    tenant: str
    #: numeric tenant index (total deterministic tie-break in rankings)
    index: int
    #: recent query volume (mean QUERIES_EXECUTED over the mix window)
    hotness: float
    #: observed template mix; empty before any predictor history
    mix: dict[str, float]
    #: the tenant has a commit on probation
    guard_active: bool
    #: simulated time of the tenant's last tuning (full or replayed)
    last_tuning_ms: float | None


@dataclass
class AdmissionState:
    """What admission rulings read and change, apart from the digests.

    The arbiter holds the canonical one; every :class:`ArbiterView`
    carries a copy that a tick's recorder advances with the same two
    methods, so a later ruling in the tick sees what the arbiter will
    hold once the driver has applied the tick's actions.
    """

    #: tenants admitted since the bin began
    admitted_this_bin: set[str] = field(default_factory=set)
    #: consecutive waiting-for-a-prior denials per tenant
    defers: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "AdmissionState":
        return AdmissionState(set(self.admitted_this_bin), dict(self.defers))

    def apply_ruling(self, ruling: "AdmissionRuling") -> None:
        """Apply the mutations one admission ruling implies."""
        tenant = ruling.tenant
        if ruling.deferred:
            self.defers[tenant] = self.defers.get(tenant, 0) + 1
        if ruling.noted:
            self.admitted_this_bin.add(tenant)
            self.defers.pop(tenant, None)

    def note_commit(self, tenant: str) -> None:
        """``tenant`` just tuned (full pass or applied replay): a stale
        wait-for-prior tally must not skew the starvation bound later."""
        self.defers.pop(tenant, None)


@dataclass(frozen=True)
class ArbiterView:
    """Frozen arbiter state a worker needs to rule on one admission."""

    config: FleetConfig
    #: all tenants' digests, in registration order (ranking iteration
    #: order is part of the deterministic contract)
    digests: dict[str, TenantDigest]
    #: a private copy of the arbiter's admission state
    admission: AdmissionState
    #: tenants force-quarantined by the fleet (restore failures); they
    #: are denied tuning outright — even urgent work — and skipped as
    #: replay targets while the rest of the fleet degrades gracefully
    quarantined: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AdmissionRuling:
    """One admission decision plus the arbiter mutations it implies."""

    tenant: str
    admitted: bool
    reason: str
    #: increment the tenant's defer count (waiting for a cluster prior)
    deferred: bool = False
    #: apply the admitted bookkeeping (per-bin set, defer count cleared)
    noted: bool = False


def tenant_rank_index(tenant: str) -> int:
    """Numeric index embedded in a tenant id ('t12' -> 12; no digits -> 0)."""
    digits = "".join(c for c in tenant if c.isdigit())
    return int(digits) if digits else 0


def observed_mix(ctx: TenantContext) -> dict[str, float]:
    """The tenant's recent template mix (raw frequencies; TV comparisons
    normalise internally). Empty before any history."""
    if ctx.predictor.history_bins == 0:
        return {}
    scenario = ctx.predictor.recent_scenario(MIX_WINDOW_BINS, 1)
    return dict(scenario.frequencies)


def compute_digest(ctx: TenantContext) -> TenantDigest:
    """Capture the arbiter-visible slice of ``ctx`` (tick-stable)."""
    return TenantDigest(
        tenant=ctx.tenant,
        index=tenant_rank_index(ctx.tenant),
        hotness=ctx.monitor.mean(QUERIES_EXECUTED, last_n=MIX_WINDOW_BINS),
        mix=observed_mix(ctx),
        guard_active=ctx.organizer.guard.active_commit is not None,
        last_tuning_ms=ctx.organizer.last_tuning_ms,
    )


def _hotter_lookalike(view: ArbiterView, own: TenantDigest) -> str | None:
    """The hottest look-alike tenant strictly hotter than ``own``.

    Hotness is recent query volume (ties break toward the lower tenant
    index, so the ranking is total and deterministic).
    """
    if not own.mix:
        return None
    own_rank = (own.hotness, -own.index)
    hottest: TenantDigest | None = None
    hottest_rank: tuple[float, float] | None = None
    for other in view.digests.values():
        if other.tenant == own.tenant:
            continue
        if not other.mix:
            continue
        if total_variation(own.mix, other.mix) > CLUSTER_TV:
            continue
        rank = (other.hotness, -other.index)
        if rank > own_rank and (hottest_rank is None or rank > hottest_rank):
            hottest, hottest_rank = other, rank
    return hottest.tenant if hottest is not None else None


def rule_admission(
    view: ArbiterView, own: TenantDigest, trigger: str
) -> AdmissionRuling:
    """Rule on one admission request — pure function of its snapshots.

    ``own`` must be a digest taken *at admission time* (the candidate's
    predictor has already observed the current bin); ``view.digests``
    carries the other tenants as of their last tick. The caller applies
    the returned mutations via :meth:`AdmissionState.apply_ruling`.
    """
    config = view.config
    state = view.admission
    tenant = own.tenant
    # a force-quarantined tenant runs its workload but never tunes: its
    # management state is untrusted (it could not be restored), so even
    # urgent work is denied until an operator intervenes
    if tenant in view.quarantined:
        return AdmissionRuling(
            tenant, False, "tenant quarantined (restore failure)"
        )
    # urgent work is never deferred: an SLA breach outranks budgets
    if trigger == SlaViolationTrigger.name:
        return AdmissionRuling(
            tenant, True, "sla violation (urgent)", noted=True
        )
    busy = sum(
        1
        for name, digest in view.digests.items()
        if name != tenant and digest.guard_active
    ) + len(state.admitted_this_bin - {tenant})
    if busy >= config.max_concurrent_reconfigurations:
        return AdmissionRuling(
            tenant,
            False,
            f"{busy} tenants already reconfiguring "
            f"(cap {config.max_concurrent_reconfigurations})",
        )
    if config.share_priors:
        hotter = _hotter_lookalike(view, own)
        if hotter is not None:
            deferred = state.defers.get(tenant, 0)
            if deferred < MAX_DEFER_BINS:
                return AdmissionRuling(
                    tenant,
                    False,
                    f"waiting for a prior from hotter look-alike "
                    f"{hotter!r} ({deferred + 1}/{MAX_DEFER_BINS})",
                    deferred=True,
                )
    return AdmissionRuling(tenant, True, "admitted", noted=True)


def build_harvest(
    ctx: TenantContext, report: OrganizerRunReport
) -> TuningPrior:
    """A committed pass as a prior-to-be: its record plus the mix the
    tenant observed at commit time (picklable; no ``prior_id`` yet)."""
    record = report.record
    return TuningPrior(
        source=ctx.tenant,
        features=report.order,
        actions=record.actions,
        mix=observed_mix(ctx),
        predicted_benefit_ms=record.predicted_benefit_ms,
        created_at_ms=record.applied_at_ms,
    )


#: Sentinel returned by :func:`replay_gate` when the cheap digest-only
#: gates pass and the expensive validation should run on the tenant.
PROCEED = object()


def replay_gate(prior: TuningPrior, digest: TenantDigest):
    """Digest-only replay gates: an outcome, ``None`` (retry next bin),
    or :data:`PROCEED` when what-if validation should run."""
    # a tenant whose own last tuning (full or replayed) is fresher
    # than the prior has newer knowledge — but newer priors from the
    # cluster still replay, so followers track the hot tenant's
    # successive passes
    if (
        digest.last_tuning_ms is not None
        and digest.last_tuning_ms >= prior.created_at_ms
    ):
        return ReplayOutcome(
            prior.prior_id, prior.source, digest.tenant,
            applied=False, reason="tenant tuned more recently",
        )
    if digest.guard_active:
        return None  # probation in flight; retry next bin
    if not digest.mix:
        return None  # no history yet; retry next bin
    distance = total_variation(prior.mix, digest.mix)
    if distance > CLUSTER_TV:
        return ReplayOutcome(
            prior.prior_id, prior.source, digest.tenant,
            applied=False,
            reason=f"not look-alike (TV {distance:.2f})",
        )
    return PROCEED


def _cluster_scenario(
    prior: TuningPrior, ctx: TenantContext
) -> tuple[WorkloadScenario, dict, float]:
    """The cluster mix rescaled to the target tenant's volume.

    This is the "forecast fitted per cluster" of the fleet layer: the
    *shape* comes from the prior (the cluster model), only the total
    volume is the target's own. Returns the scenario, the target's
    sample queries, and the fraction of mix mass those samples can
    price.
    """
    horizon = ctx.organizer.config.horizon_bins
    volume = (
        ctx.monitor.mean(QUERIES_EXECUTED, last_n=MIX_WINDOW_BINS) * horizon
    )
    mix_total = sum(prior.mix.values())
    samples = ctx.predictor.sample_queries()
    frequencies: dict[str, float] = {}
    covered = 0.0
    for key, weight in prior.mix.items():
        share = weight / mix_total if mix_total else 0.0
        if key in samples:
            covered += share
            frequencies[key] = share * volume
    scenario = WorkloadScenario("expected", 1.0, frequencies)
    return scenario, samples, covered


def attempt_replay(
    ctx: TenantContext, prior: TuningPrior
) -> ReplayOutcome | None:
    """Validate a prior on ``ctx``'s own optimizer and maybe apply it.

    The expensive half of a replay attempt (pricing + ``replay_pass``);
    runs wherever the tenant's stack lives — in-process for the serial
    fleet, inside the owning worker for the parallel fleet. Touches no
    arbiter state: the caller records the outcome.
    """
    organizer: Organizer = ctx.organizer
    scenario, samples, coverage = _cluster_scenario(prior, ctx)
    if coverage < MIN_REPLAY_COVERAGE:
        return None  # too few priced templates yet; retry next bin
    delta = ConfigurationDelta(list(prior.actions))
    cost_before = ctx.optimizer.scenario_cost_ms(scenario, samples)
    cost_after = ctx.optimizer.cost_with(delta, scenario, samples)
    required = cost_before * (1.0 - MIN_REPLAY_IMPROVEMENT)
    if not cost_after < required:
        return ReplayOutcome(
            prior.prior_id, prior.source, ctx.tenant,
            applied=False,
            reason=(
                f"what-if validation rejected: {cost_before:.2f} -> "
                f"{cost_after:.2f} ms"
            ),
            cost_before_ms=cost_before,
            cost_after_ms=cost_after,
        )
    horizon = organizer.config.horizon_bins
    forecast = Forecast(
        scenarios=(scenario,),
        horizon_bins=horizon,
        bin_duration_ms=ctx.predictor.bin_duration_ms,
        sample_queries=samples,
    )
    report = organizer.replay_pass(
        prior.actions,
        features=prior.features,
        source=prior.source,
        predicted_benefit_ms=cost_before - cost_after,
        cost_before_ms=cost_before,
        cost_after_ms=cost_after,
        forecast=forecast,
    )
    applied = report is not None and not report.rolled_back
    return ReplayOutcome(
        prior.prior_id, prior.source, ctx.tenant,
        applied=applied,
        reason="applied" if applied else "application failed",
        cost_before_ms=cost_before,
        cost_after_ms=cost_after,
    )


class FleetOrganizer:
    """Arbitrates tuning budget and shares priors across tenant contexts."""

    def __init__(self, config: FleetConfig | None = None) -> None:
        self._config = config or FleetConfig()
        self._tenants: dict[str, TenantContext] = {}
        self._priors: list[TuningPrior] = []
        self._next_prior_id = 1
        self._admission = AdmissionState()
        #: (prior_id, tenant) pairs already attempted, applied or not
        self._attempted: set[tuple[int, str]] = set()
        self._outcomes: list[ReplayOutcome] = []
        self._full_passes: dict[str, int] = {}
        self._replays: dict[str, int] = {}
        #: tenants force-quarantined by the fleet (restore failures)
        self._quarantined: set[str] = set()

    @property
    def config(self) -> FleetConfig:
        return self._config

    @property
    def priors(self) -> tuple[TuningPrior, ...]:
        return tuple(self._priors)

    @property
    def outcomes(self) -> tuple[ReplayOutcome, ...]:
        return tuple(self._outcomes)

    def full_passes(self, tenant: str) -> int:
        """Full tuning passes committed by ``tenant``'s own organizer."""
        return self._full_passes.get(tenant, 0)

    def replays(self, tenant: str) -> int:
        """Priors successfully replayed *onto* ``tenant``."""
        return self._replays.get(tenant, 0)

    @property
    def quarantined(self) -> frozenset[str]:
        """Tenants force-quarantined by the fleet (denied all tuning)."""
        return frozenset(self._quarantined)

    def quarantine_tenant(self, tenant: str) -> None:
        """Deny ``tenant`` all tuning and replay participation.

        The fleet driver calls this when a tenant's context repeatedly
        fails to restore from a checkpoint: the tenant keeps executing
        its workload on a fresh (untuned) stack, but its management
        state is untrusted, so the arbiter fences it off while the rest
        of the fleet degrades gracefully.
        """
        if tenant not in self._tenants:
            raise KeyError(tenant)
        self._quarantined.add(tenant)

    # ------------------------------------------------------------------
    # durable state (fleet checkpoints; see repro.fleet.checkpoint)

    def state_snapshot(self) -> dict[str, object]:
        """Picklable copy of every arbiter decision variable.

        Everything an admission or replay decision reads that is not
        derivable from the tenant contexts: priors, the attempted set,
        outcomes, defer counts, pass/replay tallies,
        and the quarantine set. Restoring this snapshot plus the tenant
        contexts reproduces the arbiter's future decisions exactly.
        """
        return {
            "priors": list(self._priors),
            "next_prior_id": self._next_prior_id,
            "admission": self._admission.copy(),
            "attempted": set(self._attempted),
            "outcomes": list(self._outcomes),
            "full_passes": dict(self._full_passes),
            "replays": dict(self._replays),
            "quarantined": set(self._quarantined),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Reinstate a :meth:`state_snapshot` (checkpoint restore)."""
        self._priors = list(state["priors"])
        self._next_prior_id = state["next_prior_id"]
        self._admission = state["admission"].copy()
        self._attempted = set(state["attempted"])
        self._outcomes = list(state["outcomes"])
        self._full_passes = dict(state["full_passes"])
        self._replays = dict(state["replays"])
        self._quarantined = set(state["quarantined"])

    # ------------------------------------------------------------------
    # registration & per-bin lifecycle

    def register(self, ctx: TenantContext) -> None:
        """Put one tenant under fleet arbitration.

        Registration order is the arbiter's iteration order (rankings,
        replay rounds). The organizer hooks that feed the arbiter are
        installed by the tenant's host, not here.
        """
        if ctx.tenant in self._tenants:
            raise ValueError(f"tenant {ctx.tenant!r} already registered")
        self._tenants[ctx.tenant] = ctx

    def begin_bin(self) -> None:
        """Reset per-bin admission accounting (called at bin start)."""
        self._admission.admitted_this_bin.clear()

    def active_reconfigurations(self) -> int:
        """Tenants currently holding an active probation commit."""
        return sum(
            1
            for ctx in self._tenants.values()
            if ctx.organizer.guard.active_commit is not None
        )

    # ------------------------------------------------------------------
    # decision snapshots (the fleet driver ships these to tenant hosts)

    def view(self, digests: dict[str, TenantDigest]) -> ArbiterView:
        """Freeze the arbiter's mutable state (plus digests) for a ruling.

        ``digests`` is the fleet driver's digest cache, in registration
        order; every digest field is tick-stable, so the cache equals a
        live read of every tenant.
        """
        return ArbiterView(
            config=self._config,
            digests=dict(digests),
            admission=self._admission.copy(),
            quarantined=frozenset(self._quarantined),
        )

    def apply_ruling(self, ruling: AdmissionRuling) -> None:
        """Apply the arbiter mutations one admission ruling implies."""
        self._admission.apply_ruling(ruling)

    # ------------------------------------------------------------------
    # prior harvesting (commits recorded by the tenant hosts)

    def ingest_harvest(self, harvest: TuningPrior) -> None:
        """Account one committed pass and maybe admit it as a prior.

        Any committed pass — fleet-admitted, SLA-urgent, or a guard
        escalation that bypassed admission entirely — also clears the
        tenant's defer count: the tenant just tuned, so a stale
        wait-for-prior tally must not skew the starvation bound later.
        """
        tenant = harvest.source
        self._full_passes[tenant] = self._full_passes.get(tenant, 0) + 1
        self._admission.note_commit(tenant)
        if tenant in self._quarantined:
            return  # an untrusted tenant's passes never become priors
        if not self._config.share_priors:
            return
        if not harvest.actions:
            return
        if not harvest.mix:
            return
        self._priors.append(replace(harvest, prior_id=self._next_prior_id))
        self._next_prior_id += 1

    # ------------------------------------------------------------------
    # prior replay (driven by the fleet driver after each bin)

    def replay_round(self, transport) -> list[ReplayOutcome]:
        """Try every unattempted (prior, look-alike tenant) pair once.

        Validation prices the prior's cluster mix — rescaled to the
        target tenant's recent volume — on the *target's* optimizer,
        with and without the prior's actions; the pass applies only when
        the priced improvement clears the configured margin. The
        fleet-wide reconfiguration cap applies to replays too.

        ``transport`` answers three questions against wherever the
        tenant stacks live — how many tenants are busy, what is a
        tenant's digest, and what does a validate-then-apply attempt
        return (:class:`repro.fleet.parallel.HostReplayTransport`).
        """
        if not self._config.share_priors:
            return []
        round_outcomes: list[ReplayOutcome] = []
        for prior in self._priors:
            for tenant in self._tenants:
                key = (prior.prior_id, tenant)
                if tenant == prior.source or key in self._attempted:
                    continue
                if tenant in self._quarantined:
                    continue  # fenced off; never a replay target
                if (
                    transport.active_reconfigurations()
                    >= self._config.max_concurrent_reconfigurations
                ):
                    return round_outcomes  # cap reached; retry next bin
                outcome = replay_gate(prior, transport.digest(tenant))
                if outcome is PROCEED:
                    outcome = transport.attempt(prior, tenant)
                if outcome is None:
                    continue  # not decidable yet; retry next bin
                self._attempted.add(key)
                self._outcomes.append(outcome)
                round_outcomes.append(outcome)
                if outcome.applied:
                    self._replays[tenant] = self._replays.get(tenant, 0) + 1
                    # the prior this tenant was deferring for has arrived
                    self._admission.note_commit(tenant)
        return round_outcomes

    # ------------------------------------------------------------------
    # rollup

    def summary(self) -> dict[str, object]:
        """Fleet-level arbitration counters for reports and the CLI."""
        applied = [o for o in self._outcomes if o.applied]
        return {
            "tenants": len(self._tenants),
            "priors": len(self._priors),
            "full_passes": sum(self._full_passes.values()),
            "replays_applied": len(applied),
            "replays_rejected": sum(
                1 for o in self._outcomes if not o.applied
            ),
            "active_reconfigurations": self.active_reconfigurations(),
            "quarantined_tenants": len(self._quarantined),
        }

"""Tests for shared tuning priors: harvest, what-if validation, replay."""

from dataclasses import replace

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.configuration.store import CommitResolution
from repro.core.organizer import FLEET_REPLAY_TRIGGER
from repro.fleet import FleetConfig, TenantSpec, build_fleet
from repro.fleet.arbiter import FleetOrganizer, TenantDigest

BINS = 9
ROWS = 4_000
SEED = 7


def _twins():
    """Two digital-twin tenants: same data, same trace, same volume."""
    return [
        TenantSpec("t0", 0, 0, 1.0, SEED, SEED),
        TenantSpec("t1", 1, 0, 1.0, SEED, SEED),
    ]


@pytest.fixture(scope="module")
def twin_runs():
    shared = build_fleet(2, bins=BINS, rows=ROWS, specs=_twins())
    shared_report = shared.run()
    independent = build_fleet(
        2,
        bins=BINS,
        rows=ROWS,
        specs=_twins(),
        config=FleetConfig(share_priors=False, arbitrate=False),
    )
    independent_report = independent.run()
    return shared, shared_report, independent, independent_report


def test_prior_is_harvested_from_the_hot_tenant(twin_runs):
    shared, report, _, _ = twin_runs
    assert len(shared.arbiter.priors) == 1
    prior = shared.arbiter.priors[0]
    assert prior.source == "t0"
    assert prior.actions
    assert prior.mix
    # the hot tenant tuned itself; the look-alike only received a replay
    by_tenant = {s.tenant: s for s in report.summaries}
    assert by_tenant["t0"].full_passes == 1
    assert by_tenant["t0"].replays == 0
    assert by_tenant["t1"].full_passes == 0
    assert by_tenant["t1"].replays == 1


def test_replay_passed_what_if_validation(twin_runs):
    shared, report, _, _ = twin_runs
    (outcome,) = report.replay_outcomes
    assert outcome.applied
    assert outcome.source == "t0"
    assert outcome.tenant == "t1"
    # the validation priced a strict improvement before applying
    assert outcome.cost_after_ms < outcome.cost_before_ms


def test_replayed_config_is_bit_identical_to_tuning_directly(twin_runs):
    shared, _, independent, _ = twin_runs
    # tenant t1 never ran a full pass in the shared arm — its entire
    # configuration came from replaying t0's prior. On a digital twin
    # that must equal what t1 chooses when tuning itself.
    replayed = ConfigurationInstance.capture(shared.tenant("t1").database)
    tuned = ConfigurationInstance.capture(independent.tenant("t1").database)
    assert replayed == tuned


def test_replay_is_recorded_in_the_store_and_guarded(twin_runs):
    shared, _, _, _ = twin_runs
    ctx = shared.tenant("t1")
    replayed = [
        r for r in ctx.store.history() if r.trigger == FLEET_REPLAY_TRIGGER
    ]
    # one record per replayed pass: the prior's actions, not split by
    # feature, on guard probation like any tuned pass
    assert replayed
    for record in replayed:
        assert record.actions and record.outcomes == ()
        assert record.commit_id is not None


def test_replay_saves_tuning_work_on_skewed_lookalikes():
    shared = build_fleet(2, skew=0.8, seed=SEED, bins=BINS, rows=ROWS)
    shared_report = shared.run()
    independent = build_fleet(
        2,
        skew=0.8,
        seed=SEED,
        bins=BINS,
        rows=ROWS,
        config=FleetConfig(share_priors=False, arbitrate=False),
    )
    independent_report = independent.run()
    # sharing must strictly reduce the number of full tuning passes ...
    assert (
        shared_report.total_full_passes
        < independent_report.total_full_passes
    )
    # ... while keeping every replayed tenant's post-commit workload
    # cost within 5% of tuning that tenant independently
    independent_by = {s.tenant: s for s in independent_report.summaries}
    replayed = [s for s in shared_report.summaries if s.replays]
    assert replayed
    for summary in replayed:
        baseline = independent_by[summary.tenant].final_mean_query_ms
        assert summary.final_mean_query_ms <= baseline * 1.05


def test_sharing_halves_tuning_work_on_an_eight_tenant_skewed_fleet():
    def run(share):
        fleet = build_fleet(
            8,
            skew=0.8,
            seed=SEED,
            bins=10,
            rows=3_000,
            config=FleetConfig(share_priors=share, arbitrate=share),
        )
        return fleet.run()

    shared, independent = run(True), run(False)
    # tuning work: what-if probe executions plus full passes — replays
    # mostly avoid both (one validation probe pair per prior)
    assert shared.whatif.misses + shared.total_full_passes <= 0.5 * (
        independent.whatif.misses + independent.total_full_passes
    )
    # and replay, not luck, carried the look-alike cluster: at least
    # half of the hot tenant's followers were tuned by a prior
    followers = sum(s.profile == 0 for s in shared.summaries) - 1
    replayed = sum(1 for s in shared.summaries if s.replays)
    assert replayed >= max(1, followers // 2)


def test_priors_can_be_disabled():
    fleet = build_fleet(
        2,
        bins=BINS,
        rows=ROWS,
        specs=_twins(),
        config=FleetConfig(share_priors=False),
    )
    report = fleet.run()
    assert not fleet.arbiter.priors
    assert report.total_replays == 0


class _RecordingTransport:
    """A replay transport over fixed digests that records every attempt
    and decides none (``None``: retry next bin)."""

    def __init__(self, digests):
        self._digests = digests
        self.attempts = []

    def active_reconfigurations(self):
        return 0

    def digest(self, tenant):
        return self._digests[tenant]

    def attempt(self, prior, tenant):
        self.attempts.append((prior, tenant))
        return None


def test_item_6c_a_prior_whose_commit_was_rolled_back_is_kept_and_replayed(
    monkeypatch,
):
    """ROADMAP item 6c, pinned as it stands today: the arbiter neither
    retires a prior whose source commit the guard rolled back nor gates
    replay on the source's outcome. When 6c lands, both answers flip."""
    # every busy post-commit sample confirms a regression, so the source
    # tenant's guard rolls back the commit its prior was harvested from
    monkeypatch.setattr("repro.guard.regression.REGRESSION_BOUND", -1.0)
    fleet = build_fleet(2, bins=BINS, rows=ROWS, specs=_twins())
    fleet.run()
    rolled_back = []
    for prior in fleet.arbiter.priors:
        (source,) = [
            record
            for record in fleet.tenant(prior.source).store.history()
            if record.applied_at_ms == prior.created_at_ms
            and record.actions == prior.actions
        ]
        if source.resolution is CommitResolution.ROLLED_BACK:
            rolled_back.append(prior)
    assert rolled_back
    prior = rolled_back[0]

    # kept: the arbiter still holds it after the rollback
    assert prior in fleet.arbiter.priors

    # replayed: a fresh arbiter given the same harvest sends it to a
    # look-alike target that has not tuned since
    arbiter = FleetOrganizer()
    for ctx in fleet.tenants:
        arbiter.register(ctx)
    arbiter.ingest_harvest(replace(prior, prior_id=None))
    (readmitted,) = arbiter.priors
    lookalike = TenantDigest(
        tenant="t1",
        index=1,
        hotness=1.0,
        mix=dict(prior.mix),
        guard_active=False,
        last_tuning_ms=None,
    )
    transport = _RecordingTransport(
        {"t0": replace(lookalike, tenant="t0", index=0), "t1": lookalike}
    )
    arbiter.replay_round(transport)
    assert transport.attempts == [(readmitted, "t1")]

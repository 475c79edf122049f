"""Unit tests for fleet admission arbitration (fakes, no databases)."""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.triggers import TriggerDecision
from repro.fleet.arbiter import (
    FleetConfig,
    FleetOrganizer,
    compute_digest,
    rule_admission,
)
from repro.fleet.parallel import HARVEST, TickRecorder


def _decision(trigger="periodic"):
    return TriggerDecision(should_tune=True, trigger=trigger, reason="test")


def _admit(arbiter, ctx, decision):
    """One admission the way a tenant host rules and the driver applies
    it: the pure ruling over a frozen view, then ``apply_ruling``."""
    digests = {
        tenant: compute_digest(other)
        for tenant, other in arbiter._tenants.items()
    }
    ruling = rule_admission(
        arbiter.view(digests=digests), compute_digest(ctx), decision.trigger
    )
    arbiter.apply_ruling(ruling)
    return ruling.admitted, ruling.reason


def _fake_context(
    tenant,
    active_commit=None,
    hotness=10.0,
    mix=None,
    history_bins=8,
):
    """The slice of TenantContext the arbiter's admission path reads."""
    mix = {"q1": 8.0, "q2": 2.0} if mix is None else mix

    def recent_scenario(window_bins, horizon_bins):
        return SimpleNamespace(frequencies=dict(mix))

    return SimpleNamespace(
        tenant=tenant,
        organizer=SimpleNamespace(
            guard=SimpleNamespace(active_commit=active_commit),
            last_tuning_ms=None,
        ),
        monitor=SimpleNamespace(mean=lambda metric, last_n=None: hotness),
        predictor=SimpleNamespace(
            history_bins=history_bins, recent_scenario=recent_scenario
        ),
    )


def test_admits_when_nothing_competes():
    arbiter = FleetOrganizer()
    ctx = _fake_context("t0")
    arbiter.register(ctx)
    admitted, reason = _admit(arbiter, ctx, _decision())
    assert admitted
    assert reason == "admitted"


def test_sla_violations_bypass_all_arbitration():
    arbiter = FleetOrganizer(
        FleetConfig(max_concurrent_reconfigurations=0)
    )
    ctx = _fake_context("t0")
    arbiter.register(ctx)
    admitted, reason = _admit(arbiter, ctx, _decision("sla_violation"))
    assert admitted
    assert "urgent" in reason


def test_concurrent_reconfiguration_cap_counts_other_tenants():
    arbiter = FleetOrganizer(
        FleetConfig(max_concurrent_reconfigurations=1, share_priors=False)
    )
    busy = _fake_context("t0", active_commit=object())
    candidate = _fake_context("t1", mix={"other": 1.0})
    arbiter.register(busy)
    arbiter.register(candidate)
    admitted, reason = _admit(arbiter, candidate, _decision())
    assert not admitted
    assert "cap" in reason


def test_cap_never_counts_the_candidate_itself():
    # a one-tenant fleet under probation must still admit itself: the
    # golden single-tenant identity depends on this
    arbiter = FleetOrganizer(FleetConfig(max_concurrent_reconfigurations=1))
    ctx = _fake_context("t0", active_commit=object())
    arbiter.register(ctx)
    assert _admit(arbiter, ctx, _decision())[0]


def test_cold_lookalike_defers_to_the_hotter_tenant(monkeypatch):
    monkeypatch.setattr("repro.fleet.arbiter.MAX_DEFER_BINS", 2)
    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    admitted, reason = _admit(arbiter, cold, _decision())
    assert not admitted
    assert "t0" in reason
    # the starvation bound: after MAX_DEFER_BINS denials it tunes anyway
    assert not _admit(arbiter, cold, _decision())[0]
    assert _admit(arbiter, cold, _decision())[0]


def test_hot_tenant_is_not_deferred():
    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert _admit(arbiter, hot, _decision())[0]


def test_different_mixes_are_not_lookalikes():
    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0, mix={"a": 1.0})
    cold = _fake_context("t1", hotness=10.0, mix={"b": 1.0})
    arbiter.register(hot)
    arbiter.register(cold)
    # disjoint mixes (total variation 1.0): no cluster, no deferral
    assert _admit(arbiter, cold, _decision())[0]


def test_register_rejects_duplicate_tenants():
    arbiter = FleetOrganizer()
    arbiter.register(_fake_context("t0"))
    with pytest.raises(ValueError):
        arbiter.register(_fake_context("t0"))


def test_summary_shape():
    arbiter = FleetOrganizer()
    arbiter.register(_fake_context("t0"))
    summary = arbiter.summary()
    assert summary["tenants"] == 1
    assert summary["priors"] == 0
    assert summary["full_passes"] == 0
    assert summary["replays_applied"] == 0
    assert summary["active_reconfigurations"] == 0


# ----------------------------------------------------------------------
# stale defer counts (regression: a committed pass must reset the
# wait-for-prior tally, however the pass was admitted)


def test_sla_admission_clears_pending_defers():
    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert not _admit(arbiter, cold, _decision())[0]
    assert not _admit(arbiter, cold, _decision())[0]
    assert arbiter._admission.defers["t1"] == 2
    # an SLA breach admits unconditionally — and resets the tally
    assert _admit(arbiter, cold, _decision("sla_violation"))[0]
    assert "t1" not in arbiter._admission.defers


def test_harvested_commit_clears_pending_defers():
    """A guard-escalated commit bypasses admission entirely; the harvest
    (the commit listener) is the only place its defers can be reset."""
    from repro.fleet.arbiter import TuningPrior

    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert not _admit(arbiter, cold, _decision())[0]
    assert arbiter._admission.defers["t1"] == 1
    arbiter.ingest_harvest(
        TuningPrior(
            source="t1",
            features=("index",),
            actions=(),
            predicted_benefit_ms=0.0,
            mix={"q1": 1.0},
            created_at_ms=0.0,
        )
    )
    assert "t1" not in arbiter._admission.defers
    assert arbiter.full_passes("t1") == 1
    # actions were empty, so no prior was harvested from it
    assert arbiter.priors == ()


def test_applied_replay_clears_pending_defers():
    """The prior a tenant was deferring for has arrived: the tally must
    reset when a replay applies, or the starvation bound is skewed."""
    from repro.fleet.arbiter import (
        ReplayOutcome,
        TenantDigest,
        TuningPrior,
    )

    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert not _admit(arbiter, cold, _decision())[0]
    assert arbiter._admission.defers["t1"] == 1
    arbiter._priors.append(
        TuningPrior(
            prior_id=1,
            source="t0",
            features=("index",),
            actions=(),
            mix={"q1": 8.0, "q2": 2.0},
            predicted_benefit_ms=5.0,
            created_at_ms=100.0,
        )
    )

    class _AppliedTransport:
        """Replay transport stub: every attempt applies."""

        def active_reconfigurations(self):
            return 0

        def digest(self, tenant):
            return TenantDigest(
                tenant=tenant,
                index=1,
                hotness=10.0,
                mix={"q1": 8.0, "q2": 2.0},
                guard_active=False,
                last_tuning_ms=None,
            )

        def attempt(self, prior, tenant):
            return ReplayOutcome(
                prior.prior_id, prior.source, tenant,
                applied=True, reason="applied",
            )

    outcomes = arbiter.replay_round(_AppliedTransport())
    assert [o.applied for o in outcomes] == [True]
    assert arbiter.replays("t1") == 1
    assert "t1" not in arbiter._admission.defers


# ----------------------------------------------------------------------
# the recorder's view of a tick is the arbiter's (differential)


@settings(max_examples=150, deadline=None)
@given(
    ticks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # the tenant ticking
            st.booleans(),  # a new fleet bin begins first
            st.lists(
                st.sampled_from(["periodic", "sla_violation", "commit"]),
                max_size=4,
            ),
        ),
        max_size=12,
    )
)
@mock.patch("repro.fleet.arbiter.MAX_DEFER_BINS", 2)
def test_recorder_view_after_a_tick_is_the_arbiters(ticks):
    """Within a tick the recorder rules from its own copy of the
    admission state; once the driver has applied the tick's recorded
    actions the arbiter must hold exactly what that copy ended as, or a
    second ruling in one tick saw a state that never existed."""
    arbiter = FleetOrganizer(FleetConfig(max_concurrent_reconfigurations=2))
    contexts = [
        _fake_context(f"t{i}", hotness=100.0 / (i + 1)) for i in range(3)
    ]
    for ctx in contexts:
        arbiter.register(ctx)
    arbiter.quarantine_tenant("t2")  # its commits never become priors
    committed = SimpleNamespace(
        order=("index",),
        record=SimpleNamespace(
            actions=(), predicted_benefit_ms=0.0, applied_at_ms=0.0
        ),
    )
    for index, new_bin, steps in ticks:
        ctx = contexts[index]
        if new_bin:
            arbiter.begin_bin()
        digests = {c.tenant: compute_digest(c) for c in contexts}
        view = arbiter.view(digests=digests)
        recorder = TickRecorder(ctx)
        recorder.arm(view)
        for step in steps:
            if step == "commit":
                recorder.commit(None, committed)
            else:
                recorder.admission(None, _decision(step))
        assert len(recorder.actions) == len(steps)
        for kind, payload in recorder.actions:  # as FleetDriver._bin_attempt
            if kind == HARVEST:
                arbiter.ingest_harvest(payload)
            else:
                arbiter.apply_ruling(payload)
        assert arbiter.view(digests=digests) == view

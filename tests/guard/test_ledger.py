"""Commit-ledger semantics: one probation at a time, sound supersession."""

import pytest

from repro.configuration.actions import SetKnobAction
from repro.dbms.knobs import SCAN_THREADS_KNOB
from repro.guard import CommitLedger, CommitResolution


def _open(ledger, now_ms=1_000.0, features=("index_selection",), n_actions=2):
    inverse = tuple(
        SetKnobAction(SCAN_THREADS_KNOB, i + 1) for i in range(n_actions)
    )
    return ledger.open(
        now_ms,
        features=features,
        inverse_actions=inverse,
        baseline_ms=5.0,
        baseline_sample_count=4,
        record_id=7,
    )


def test_open_and_resolve_lifecycle():
    ledger = CommitLedger()
    commit, superseded = _open(ledger)
    assert superseded is None
    assert ledger.active is commit
    assert commit.active
    assert commit.commit_id == 1
    assert len(ledger) == 1

    resolved = ledger.resolve(CommitResolution.PASSED, 2_000.0)
    assert resolved is commit
    assert not commit.active
    assert commit.resolved_at_ms == 2_000.0
    assert ledger.active is None
    assert ledger.history() == (commit,)


def test_resolve_without_active_commit_raises():
    with pytest.raises(ValueError):
        CommitLedger().resolve(CommitResolution.PASSED, 0.0)


def test_rollback_material_kept_only_for_rolled_back():
    ledger = CommitLedger()
    commit, _ = _open(ledger)
    ledger.resolve(CommitResolution.PASSED, 2_000.0)
    assert commit.inverse_actions == ()

    commit, _ = _open(ledger)
    ledger.resolve(CommitResolution.ROLLED_BACK, 3_000.0)
    assert len(commit.inverse_actions) == 2


def test_newer_commit_supersedes_the_active_one():
    ledger = CommitLedger()
    first, _ = _open(ledger, now_ms=1_000.0)
    second, superseded = _open(ledger, now_ms=2_000.0)
    assert superseded is first
    assert first.resolution is CommitResolution.SUPERSEDED
    # stale inverse actions must not survive: they only compose with the
    # configuration state they were recorded against
    assert first.inverse_actions == ()
    assert ledger.active is second
    assert second.commit_id == 2


def test_history_is_bounded():
    ledger = CommitLedger(history_size=3)
    for i in range(5):
        _open(ledger, now_ms=float(i))
        ledger.resolve(CommitResolution.PASSED, float(i))
    assert len(ledger) == 3
    assert [c.commit_id for c in ledger.history()] == [3, 4, 5]
    with pytest.raises(ValueError):
        CommitLedger(history_size=0)


def test_snapshot_includes_active_commit():
    ledger = CommitLedger()
    _open(ledger, now_ms=1_000.0)
    ledger.resolve(CommitResolution.ROLLED_BACK, 2_000.0)
    _open(ledger, now_ms=3_000.0)
    snap = ledger.snapshot()
    assert [entry["resolution"] for entry in snap] == [
        "rolled_back",
        "on_probation",
    ]
    assert snap[0]["inverse_actions"] == 2
    assert snap[1]["commit_id"] == 2

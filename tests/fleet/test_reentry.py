"""Re-entry safety of the fleet loop and honesty of the report window.

``FleetDriver.run``/``run_bin`` used to happily re-run bins — a second
``run()`` doubled every tenant's records and replayed simulated time —
and ``report(final_window_bins=4)`` on a 2-bin run quietly averaged
warm-up bins into the "final" means. These tests pin the fixed
behavior: bins run in order, each exactly once, ``run`` resumes instead
of restarting, and a too-large window is clamped and flagged.
"""

import pytest

from repro.fleet import build_fleet

BINS = 4
ROWS = 2_000


@pytest.fixture(scope="module")
def fleet():
    driver = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    driver.run()
    return driver


def test_run_twice_does_not_duplicate_records(fleet):
    first = [list(ctx.records) for ctx in fleet.tenants]
    report = fleet.run()  # a second run() resumes: nothing left to do
    assert [list(ctx.records) for ctx in fleet.tenants] == first
    assert all(len(ctx.records) == BINS for ctx in fleet.tenants)
    assert report.summaries  # still reports the single pass


def test_run_bin_rejects_rerun_and_out_of_order():
    driver = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    with pytest.raises(ValueError, match="expected bin 0, got 2"):
        driver.run_bin(2)
    driver.run_bin(0)
    with pytest.raises(ValueError, match="expected bin 1, got 0"):
        driver.run_bin(0)
    assert all(len(ctx.records) == 1 for ctx in driver.tenants)
    assert driver.next_bin == 1


def test_run_bin_past_the_trace_raises(fleet):
    with pytest.raises(ValueError, match="out of range"):
        fleet.run_bin(BINS)


def test_run_resumes_from_partial_progress():
    driver = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    driver.run(stop=2)
    assert driver.next_bin == 2
    driver.run()  # picks up at bin 2, not bin 0
    assert driver.next_bin == BINS
    assert all(len(ctx.records) == BINS for ctx in driver.tenants)


def test_run_stop_zero_runs_nothing():
    driver = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    report = driver.run(stop=0)
    assert driver.next_bin == 0
    assert all(len(ctx.records) == 0 for ctx in driver.tenants)
    assert report.total_queries == 0
    # no bins -> no final window at all, and the report says so
    assert report.final_window_bins == 0
    assert report.final_window_clamped


def test_run_negative_stop_raises():
    driver = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    with pytest.raises(ValueError, match="stop must be >= 0"):
        driver.run(stop=-1)


def test_report_window_clamps_to_bins_run():
    driver = build_fleet(2, seed=5, bins=BINS, rows=ROWS)
    driver.run(stop=2)
    report = driver.report(final_window_bins=4)
    assert report.final_window_bins == 2
    assert report.final_window_clamped
    # the clamped window covers exactly the bins that ran: the "final"
    # mean equals the overall mean instead of sampling phantom bins
    for summary in report.summaries:
        assert summary.final_mean_query_ms == pytest.approx(
            summary.mean_query_ms
        )


def test_report_window_unclamped_when_enough_bins(fleet):
    report = fleet.report(final_window_bins=2)
    assert report.final_window_bins == 2
    assert not report.final_window_clamped


def test_report_rejects_nonpositive_window(fleet):
    with pytest.raises(ValueError, match="final_window_bins"):
        fleet.report(final_window_bins=0)


def test_pass_committed_by_hand_between_bins_reaches_the_arbiter():
    """The host's recorder must not append to an action list it already
    handed to the driver, nor drop it at the next tick: a pass a caller
    commits on a tenant between bins is reported with the next tick."""
    driver = build_fleet(2, seed=5, bins=8, rows=ROWS)
    driver.run(stop=6)
    tenant = driver.tenants[0].tenant
    arbiter = driver.arbiter
    passes = arbiter.full_passes(tenant)
    priors = len(arbiter.priors)

    assert driver.tenants[0].organizer.run_tuning() is not None
    driver.run_bin(6)

    assert arbiter.full_passes(tenant) == passes + 1
    assert len(arbiter.priors) == priors + 1
    assert arbiter.priors[-1].source == tenant

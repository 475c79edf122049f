"""Worker supervision: crashes are detected, recovered, and invisible.

The strong claim of the supervision layer is the same bit-identity the
parallel barrier already holds, extended across process death: a fleet
whose worker is SIGKILL'd mid-bin (by hand, or on a generated kill
schedule) must finish with exactly the serial run's bin records, event
streams, final configurations, and rollup counters. The crash shows up
*only* in the fleet-infrastructure counters and events.

Also here: the poll-with-timeout RPC layer (a SIGSTOP'd worker becomes
a ``WorkerCrashed``, not a deadlock) and the structured hard-kill
reporting in ``FleetWorkerPool.stop`` (a wedged worker at shutdown
bumps a counter and emits an event instead of dying silently).
"""

import os
import signal
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.fleet import CheckpointError, build_fleet, load_checkpoint
from repro.fleet.parallel import FleetWorkerPool, WorkerCrashed
from repro.kpi.metrics import (
    CHECKPOINT_WRITES,
    WORKER_HARD_KILLS,
    WORKER_RESTARTS,
)
from repro.telemetry.metrics import MetricRegistry
from tests.fleet.test_parallel import _fingerprint

BINS = 6
ROWS = 3_000
TENANTS = 3
KILL_BIN = 2


def _run_serial(seed):
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS, parallel="serial"
    )
    return _fingerprint(fleet, fleet.run())


@pytest.fixture(scope="module")
def serial_fingerprints():
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = _run_serial(seed)
        return cache[seed]

    return get


# ----------------------------------------------------------------------
# crash recovery is bit-identical


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sigkilled_worker_leaves_run_bit_identical(
    serial_fingerprints, seed
):
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS,
        parallel="process", workers=2,
    )
    for index in range(KILL_BIN):
        fleet.run_bin(index)
    fleet._pool.kill_worker(0)  # SIGKILL, no cleanup: mid-"bin" death
    report = fleet.run()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert report.fleet_counters[WORKER_RESTARTS] == 1.0
    kinds = [e["kind"] for e in fleet.fleet_events]
    assert "worker_crash_recovery" in kinds


def test_crash_during_final_sync_is_recovered(serial_fingerprints):
    seed = 2
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS,
        parallel="process", workers=2,
    )
    for index in range(BINS):
        fleet.run_bin(index)
    fleet._pool.kill_worker(1)
    # report() -> sync_workers() hits the dead worker; recovery rolls
    # back to the pre-fork capture (the only boundary this run has),
    # re-runs every bin on a fresh pool, and merges again
    report = fleet.report()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert report.fleet_counters[WORKER_RESTARTS] == 1.0
    assert _recoveries(fleet) == [0]
    assert fleet.next_bin == BINS


# ----------------------------------------------------------------------
# the restore point is a by-product: fork, durable checkpoint, nothing else


def _recoveries(fleet):
    """The bin boundary each crash recovery rolled back to, in order."""
    return [
        e["resume_bin"]
        for e in fleet.fleet_events
        if e["kind"] == "worker_crash_recovery"
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crash_rolls_back_to_the_last_durable_checkpoint(
    serial_fingerprints, seed, tmp_path
):
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS,
        parallel="process", workers=2,
        checkpoint_dir=tmp_path, checkpoint_every=3,
    )
    for index in range(5):
        fleet.run_bin(index)
    (epoch_3,) = tmp_path.iterdir()
    written = epoch_3.stat()
    fleet._pool.kill_worker(0)
    report = fleet.run()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    # bins 3 and 4 re-ran from the epoch-3 bundle, not from the fork...
    assert _recoveries(fleet) == [3]
    # ...and re-running a bin writes nothing: one file per epoch, the
    # first still the inode and bytes it was before the crash
    assert report.fleet_counters[CHECKPOINT_WRITES] == 2.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fleet-ckpt-000003.pkl",
        "fleet-ckpt-000006.pkl",
    ]
    after = epoch_3.stat()
    assert (after.st_ino, after.st_mtime_ns) == (
        written.st_ino,
        written.st_mtime_ns,
    )


@settings(
    max_examples=7,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kills=st.dictionaries(
        st.integers(min_value=1, max_value=BINS - 1),
        st.integers(min_value=0, max_value=1),
        max_size=3,
    ),
    checkpoint_every=st.sampled_from([0, 2]),
)
@example(kills={1: 0, 2: 1, 3: 0}, checkpoint_every=2)
def test_generated_kill_schedules_recover_bit_identically(
    serial_fingerprints, kills, checkpoint_every
):
    """Up to three workers killed at distinct bins, with or without
    durable checkpoints: the run equals the serial one, each kill costs
    one restart, and each recovery rolls back to the newest checkpoint
    at or before its bin (the fork's boundary, 0, without checkpoints)."""
    seed = 1
    with tempfile.TemporaryDirectory() as directory:
        fleet = build_fleet(
            TENANTS, seed=seed, bins=BINS, rows=ROWS,
            parallel="process", workers=2,
            checkpoint_dir=directory, checkpoint_every=checkpoint_every,
        )
        for index in range(BINS):
            if index in kills:
                fleet._pool.kill_worker(kills[index])
            fleet.run_bin(index)
        report = fleet.report()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert report.fleet_counters[WORKER_RESTARTS] == len(kills)
    assert _recoveries(fleet) == [
        checkpoint_every * (b // checkpoint_every) if checkpoint_every else 0
        for b in sorted(kills)
    ]


def test_crash_during_a_checkpoint_capture_is_recovered(
    serial_fingerprints, tmp_path
):
    seed = 3
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS,
        parallel="process", workers=2,
    )
    for index in range(3):
        fleet.run_bin(index)
    fleet._pool.kill_worker(1)
    # the capture is a worker RPC: bins 0-2 re-run, then it is retried
    path = fleet.checkpoint(tmp_path)
    assert load_checkpoint(path).next_bin == 3
    assert _recoveries(fleet) == [0]
    report = fleet.run()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert report.fleet_counters[WORKER_RESTARTS] == 1.0


def test_failed_checkpoint_write_raises_at_the_call(
    serial_fingerprints, tmp_path
):
    seed = 1
    blocker = tmp_path / "a-regular-file"
    blocker.write_text("not a directory")
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS,
        parallel="process", workers=2,
        checkpoint_dir=blocker / "ckpts", checkpoint_every=4,
    )
    for index in range(3):
        fleet.run_bin(index)
    with pytest.raises(CheckpointError, match="checkpoint write failed"):
        fleet.run_bin(3)
    # the bin itself ran; only its checkpoint is missing
    assert fleet.next_bin == 4
    with pytest.raises(CheckpointError, match="checkpoint write failed"):
        fleet.checkpoint()
    # bins 4 and 5 are due no checkpoint and finish the run undisturbed
    report = fleet.run()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert report.fleet_counters[CHECKPOINT_WRITES] == 0.0
    assert "checkpoint" not in {e["kind"] for e in fleet.fleet_events}


def test_worker_crashed_carries_worker_and_tenants():
    exc = WorkerCrashed(1, ("t2", "t5"), "process died (exit code -9)")
    assert exc.worker == 1
    assert exc.tenants == ("t2", "t5")
    assert "t2, t5" in str(exc)
    assert "exit code -9" in str(exc)


def test_recovery_gives_up_after_max_crash_recoveries(monkeypatch):
    monkeypatch.setattr("repro.fleet.driver.MAX_CRASH_RECOVERIES", 0)
    fleet = build_fleet(
        2, seed=1, bins=2, rows=800, parallel="process", workers=2
    )
    fleet.run_bin(0)
    fleet._pool.kill_worker(0)
    with pytest.raises(WorkerCrashed):
        fleet.run_bin(1)


# ----------------------------------------------------------------------
# the supervised RPC layer (pool-level)


def _make_pool():
    fleet = build_fleet(2, seed=3, bins=2, rows=800)
    registry = MetricRegistry()
    events = []
    pool = FleetWorkerPool(
        list(fleet.tenants),
        fleet.arbiter.config,
        workers=2,
        registry=registry,
        on_event=events.append,
    )
    return pool, registry, events


def test_no_fork_start_method_points_at_serial_mode(monkeypatch):
    import multiprocessing

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    with pytest.raises(RuntimeError, match="parallel='serial'"):
        _make_pool()


def test_dead_worker_raises_worker_crashed_not_hang():
    pool, _, _ = _make_pool()
    try:
        os.kill(pool.pids[0], signal.SIGKILL)
        with pytest.raises(WorkerCrashed) as info:
            pool.execute_all(0)
        assert info.value.worker == 0
        assert info.value.tenants == pool.tenants_of(0)
    finally:
        pool.abandon()


def test_hung_worker_hits_rpc_timeout(monkeypatch):
    monkeypatch.setattr("repro.fleet.parallel.RPC_TIMEOUT_S", 1.5)
    monkeypatch.setattr("repro.fleet.parallel.STOP_TIMEOUT_S", 1.0)
    pool, _, _ = _make_pool()
    try:
        os.kill(pool.pids[0], signal.SIGSTOP)
        with pytest.raises(WorkerCrashed, match="no reply within"):
            pool.execute_all(0)
    finally:
        pool.abandon()


def test_stop_reports_hard_kill_of_wedged_worker(monkeypatch):
    """The silent terminate() in shutdown is now counted and evented."""
    monkeypatch.setattr("repro.fleet.parallel.STOP_TIMEOUT_S", 0.5)
    pool, registry, events = _make_pool()
    wedged_pid = pool.pids[1]
    os.kill(wedged_pid, signal.SIGSTOP)
    pool.stop()
    assert registry.snapshot_counters()[WORKER_HARD_KILLS] == 1.0
    kills = [e for e in events if e["kind"] == "worker_hard_kill"]
    assert len(kills) == 1
    assert kills[0]["worker"] == 1
    assert kills[0]["pid"] == wedged_pid
    assert kills[0]["phase"] == "shutdown"
    assert kills[0]["tenants"] == pool.tenants_of(1)


def test_clean_stop_reports_no_hard_kills():
    pool, registry, events = _make_pool()
    pool.stop()
    assert registry.snapshot_counters()[WORKER_HARD_KILLS] == 0.0
    assert events == []

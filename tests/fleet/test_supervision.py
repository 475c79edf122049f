"""Worker supervision: crashes are detected, recovered, and invisible.

The strong claim of the supervision layer is the same bit-identity the
parallel barrier already holds, extended across process death: a fleet
whose worker is SIGKILL'd mid-bin (directly, or by the seeded chaos
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

import pytest

from repro.faults.injector import FaultConfig, FaultInjector
from repro.fleet import CheckpointError, build_fleet, load_checkpoint
from repro.fleet.parallel import FleetWorkerPool, WorkerCrashed
from repro.kpi.metrics import (
    CHECKPOINT_WRITES,
    FAULT_WORKER_CRASHES,
    FLEET_TENANT_QUARANTINES,
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


def test_chaos_schedule_kills_and_recovers_bit_identically(
    serial_fingerprints,
):
    seed = 1
    chaos = FaultConfig(seed=9, worker_crash_rate=0.5)
    # the schedule is a pure function of (seed, bin): compute the
    # expected kill bins offline with an independent injector
    oracle = FaultInjector(chaos)
    expected_kills = [
        b for b in range(BINS) if oracle.worker_crash(b, 2) is not None
    ]
    assert expected_kills, "pick chaos seed/rate that kills at least once"

    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS,
        parallel="process", workers=2, chaos=chaos,
    )
    report = fleet.run()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert report.fleet_counters[WORKER_RESTARTS] == len(expected_kills)
    assert report.fleet_counters[FAULT_WORKER_CRASHES] == len(
        expected_kills
    )
    killed_bins = [
        e["bin"]
        for e in fleet.fleet_events
        if e["kind"] == "chaos_worker_kill"
    ]
    assert killed_bins == expected_kills


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


def test_chaos_damages_the_written_copy_never_the_restore_point(
    serial_fingerprints, tmp_path
):
    seed = 1
    # kills at bins 1, 2 and 3 (2 workers); every written checkpoint has
    # one damaged tenant blob
    chaos = FaultConfig(
        seed=9, worker_crash_rate=0.5, checkpoint_corruption_rate=1.0
    )
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS,
        parallel="process", workers=2, chaos=chaos,
        checkpoint_dir=tmp_path, checkpoint_every=2,
    )
    for index in range(4):
        fleet.run_bin(index)
    # the bin-1 kill rolled back to the fork; the other two to the
    # epoch-2 bundle taken for the (damaged) durable checkpoint
    assert _recoveries(fleet) == [0, 2, 2]
    assert fleet._restore_point.next_bin == 4
    assert all(state.verify() for state in fleet._restore_point.tenants)
    on_disk = load_checkpoint(tmp_path / "fleet-ckpt-000004.pkl")
    assert [state.verify() for state in on_disk.tenants].count(False) == 1
    report = fleet.run()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert report.fleet_counters[FLEET_TENANT_QUARANTINES] == 0.0


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


def test_serial_mode_ignores_the_worker_kill_schedule(serial_fingerprints):
    seed = 2
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS, parallel="serial",
        chaos=FaultConfig(seed=9, worker_crash_rate=1.0),
    )
    report = fleet.run()
    assert _fingerprint(fleet, report) == serial_fingerprints(seed)
    assert fleet.fleet_events == ()
    assert report.fleet_counters[WORKER_RESTARTS] == 0.0
    assert report.fleet_counters[FAULT_WORKER_CRASHES] == 0.0


def test_worker_crashed_carries_worker_and_tenants():
    exc = WorkerCrashed(1, ("t2", "t5"), "process died (exit code -9)")
    assert exc.worker == 1
    assert exc.tenants == ("t2", "t5")
    assert "t2, t5" in str(exc)
    assert "exit code -9" in str(exc)


def test_recovery_gives_up_after_max_crash_recoveries():
    fleet = build_fleet(
        2, seed=1, bins=2, rows=800,
        parallel="process", workers=2, max_crash_recoveries=0,
    )
    fleet.run_bin(0)
    fleet._pool.kill_worker(0)
    with pytest.raises(WorkerCrashed):
        fleet.run_bin(1)


# ----------------------------------------------------------------------
# the supervised RPC layer (pool-level)


def _make_pool(**kwargs):
    fleet = build_fleet(2, seed=3, bins=2, rows=800)
    registry = MetricRegistry()
    events = []
    pool = FleetWorkerPool(
        list(fleet.tenants),
        fleet.arbiter.config,
        workers=2,
        registry=registry,
        on_event=events.append,
        **kwargs,
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


def test_hung_worker_hits_rpc_timeout():
    pool, _, _ = _make_pool(rpc_timeout_s=1.5, stop_timeout_s=1.0)
    try:
        os.kill(pool.pids[0], signal.SIGSTOP)
        with pytest.raises(WorkerCrashed, match="no reply within"):
            pool.execute_all(0)
    finally:
        pool.abandon()


def test_stop_reports_hard_kill_of_wedged_worker():
    """The silent terminate() in shutdown is now counted and evented."""
    pool, registry, events = _make_pool(stop_timeout_s=0.5)
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

"""Golden tests: the process-hosted fleet is bit-identical to the serial one.

The claim is strong — hosting the tenants in fork workers must produce
exactly the serial run: same bin records, same per-tenant event
streams (arbiter reason strings included), same final physical
configurations, same rollup counters, same arbitration totals. These
tests hold that on multiple seeds, plus the mid-run sync/resume path of
the process pool.
"""

import pytest

from repro.configuration.config import ConfigurationInstance
from repro.fleet import build_fleet
from repro.telemetry.metrics import TENANT_SEP

BINS = 8
ROWS = 3_000
TENANTS = 3


def _normalized_events(log):
    """Events with host-wall-clock measurements stripped from data."""
    out = []
    for event in log.events():
        data = {
            k: v for k, v in event.data.items() if not k.endswith("seconds")
        }
        out.append((event.at_ms, event.kind, event.message, data))
    return out


def _fingerprint(fleet, report):
    per_tenant = {}
    for ctx in fleet.tenants:
        per_tenant[ctx.tenant] = (
            [
                (
                    r.index,
                    r.queries_executed,
                    r.workload_ms,
                    r.reconfiguration_ms,
                    r.mean_query_ms,
                    r.now_ms,
                    r.reconfigured,
                )
                for r in ctx.records
            ],
            _normalized_events(ctx.events),
            ConfigurationInstance.capture(ctx.database),
        )
    return per_tenant, report.counters, report.arbitration


def _run(mode, seed, **kwargs):
    fleet = build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS, parallel=mode, **kwargs
    )
    report = fleet.run()
    return fleet, report


@pytest.fixture(scope="module")
def serial_fingerprints():
    """Serial-arm fingerprints, computed once per seed."""
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = _fingerprint(*_run("serial", seed))
        return cache[seed]

    return get


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_process_mode_is_bit_identical(serial_fingerprints, seed):
    assert _fingerprint(*_run("process", seed)) == serial_fingerprints(seed)


def test_process_mode_single_worker_is_bit_identical(serial_fingerprints):
    """Worker count must not matter, only the barrier order."""
    fleet, report = _run("process", 2, workers=1)
    assert _fingerprint(fleet, report) == serial_fingerprints(2)


def test_process_mode_survives_mid_run_sync(serial_fingerprints):
    """Reading metrics mid-run merges the workers back and re-forks.

    labelled_metrics() tears the pool down (state flows back to the
    parent contexts); the next bin must fork a fresh pool from the
    merged state and still end bit-identical to serial.
    """
    fleet = build_fleet(
        TENANTS, seed=1, bins=BINS, rows=ROWS, parallel="process"
    )
    for index in range(BINS // 2):
        fleet.run_bin(index)
    labelled = fleet.labelled_metrics()
    assert labelled  # merged state is readable mid-run
    assert all(TENANT_SEP in name for name in labelled)
    report = fleet.run()  # resumes from the next unrun bin
    assert _fingerprint(fleet, report) == serial_fingerprints(1)


def test_a_driver_handle_reads_the_merged_context():
    """A driver held across a process-mode run reads the stack the merge
    brought back, not the one its attach built before the fork."""
    fleet = build_fleet(2, seed=1, bins=BINS, rows=ROWS, parallel="process")
    ctx = fleet.tenants[0]
    d = ctx.driver
    fleet.run()
    assert d.context is ctx
    assert d.database is ctx.database
    assert ctx.store.history()  # the run committed something
    assert d.context.store.history() == ctx.store.history()


def test_labelled_metrics_identical_across_modes():
    """Per-tenant metric namespacing survives parallel execution."""
    serial_fleet, _ = _run("serial", 2)
    process_fleet, _ = _run("process", 2)
    serial_metrics = serial_fleet.labelled_metrics()
    process_metrics = process_fleet.labelled_metrics()
    assert all(TENANT_SEP in name for name in process_metrics)
    assert serial_metrics == process_metrics


def test_unknown_parallel_mode_rejected():
    with pytest.raises(ValueError, match="unknown parallel mode"):
        build_fleet(2, bins=2, rows=1_000, parallel="greenlet")


def test_thread_mode_is_rejected_naming_the_valid_modes(capsys):
    """Thread mode is gone: both entry points say what is left."""
    from repro.__main__ import main

    with pytest.raises(ValueError, match=r"'serial', 'process'"):
        build_fleet(1, bins=1, rows=200, parallel="thread")
    with pytest.raises(SystemExit):
        main(["fleet", "--parallel", "thread"])
    assert "'serial', 'process'" in capsys.readouterr().err

"""Durable checkpoint/resume: golden identity plus format hardening.

The headline claim: a run that is checkpointed, torn down, and resumed
in a fresh fleet is **bit-identical** to a run that was never
interrupted — same bin records, same per-tenant event streams (host
wall-clock measurements normalized away), same final physical
configurations, same rollup counters, same arbitration totals. Held on
multiple seeds, in serial and process mode.

Alongside: the on-disk format refuses foreign/torn/corrupt files,
file-level corruption falls back to an older epoch, and a per-tenant
blob corruption quarantines exactly that tenant while the rest of the
fleet restores and keeps running.
"""

import pickle

import pytest

from repro.faults import FaultConfig
from repro.fleet import (
    CheckpointError,
    FleetDriver,
    build_fleet,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.fleet.checkpoint import (
    FORMAT_VERSION,
    blob_digest,
    checkpoint_path,
)
from repro.kpi.metrics import (
    CHECKPOINT_CORRUPTIONS_DETECTED,
    FLEET_TENANT_QUARANTINES,
)
from tests.fleet.test_parallel import _fingerprint
from tests.fleet.test_stats import _registry_walk

BINS = 8
HALF = 4
ROWS = 3_000
TENANTS = 3


def _build(seed, mode="serial", **kwargs):
    return build_fleet(
        TENANTS, seed=seed, bins=BINS, rows=ROWS, parallel=mode, **kwargs
    )


def _finish(fleet):
    report = fleet.run()
    return _fingerprint(fleet, report)


# ----------------------------------------------------------------------
# golden resume identity


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_resume_is_bit_identical_serial(tmp_path, seed):
    """Straight run == run half, checkpoint, resume in a fresh fleet."""
    straight = _finish(_build(seed))

    first = _build(seed)
    first.run(HALF)
    first.checkpoint(tmp_path)
    del first  # the resumed fleet shares nothing with the original

    resumed = FleetDriver.resume(tmp_path)
    assert resumed.next_bin == HALF
    assert _finish(resumed) == straight


@pytest.mark.parametrize("seed", [1, 2])
def test_resume_is_bit_identical_process_mode(tmp_path, seed):
    """Checkpoint a live worker pool mid-run; resume matches serial."""
    straight = _finish(_build(seed))

    first = _build(seed, mode="process", workers=2)
    first.run(HALF)  # leaves the pool alive; checkpoint snapshots it
    first.checkpoint(tmp_path)
    first.sync_workers()

    resumed = FleetDriver.resume(tmp_path, parallel="process", workers=2)
    assert resumed.next_bin == HALF
    assert _finish(resumed) == straight


def test_periodic_checkpoints_do_not_perturb_the_run(tmp_path):
    """checkpoint_every=N leaves every tenant stream bit-identical."""
    plain = _finish(_build(5))
    checked = _build(5, checkpoint_dir=tmp_path, checkpoint_every=2)
    assert _finish(checked) == plain
    epochs = [p.name for p in list_checkpoints(tmp_path)]
    assert epochs == [
        f"fleet-ckpt-{bin_index:06d}.pkl"
        for bin_index in range(2, BINS + 1, 2)
    ]


def test_resume_from_specific_file_and_restore_counter(tmp_path):
    fleet = _build(4, checkpoint_dir=tmp_path, checkpoint_every=3)
    fleet.run(6)
    ckpt, path = latest_checkpoint(tmp_path)
    assert ckpt.next_bin == 6
    resumed = FleetDriver.resume(path)
    assert resumed.next_bin == 6
    assert resumed.fleet_counters["checkpoint_restores"] == 1.0


def test_a_driver_handle_reads_the_restored_context(tmp_path):
    """A driver held across a serial restore reads the restored stack."""
    fleet = _build(1, checkpoint_dir=tmp_path, checkpoint_every=HALF)
    ctx = fleet.tenants[0]
    d = ctx.driver
    fleet.run()
    fleet.restore(tmp_path)
    assert d.context is ctx
    assert d.database is ctx.database


def test_a_blob_with_attributes_the_build_no_longer_defines_resumes(
    tmp_path,
):
    """Removing a field does not bump FORMAT_VERSION: a blob whose driver
    and driver config carry attributes this build no longer defines (as
    an older build's did) loads, and nothing reads them."""
    straight = _finish(_build(2))

    first = _build(2)
    first.run(HALF)
    for ctx in first.tenants:
        ctx.driver.store = ctx.store
        ctx.driver._config.retry = FaultConfig()
    first.checkpoint(tmp_path)
    del first

    resumed = FleetDriver.resume(tmp_path)
    for ctx in resumed.tenants:
        assert vars(ctx.driver)["store"] is ctx.store
        assert isinstance(vars(ctx.driver._config)["retry"], FaultConfig)
    assert _finish(resumed) == straight


# ----------------------------------------------------------------------
# on-disk format hardening


def test_load_rejects_foreign_and_torn_files(tmp_path):
    foreign = tmp_path / "fleet-ckpt-000001.pkl"
    foreign.write_bytes(pickle.dumps({"magic": "something-else"}))
    with pytest.raises(CheckpointError, match="not a fleet checkpoint"):
        load_checkpoint(foreign)

    torn = tmp_path / "fleet-ckpt-000002.pkl"
    torn.write_bytes(b"\x80\x04not really a pickle")
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(torn)

    with pytest.raises(CheckpointError, match="no checkpoint at"):
        load_checkpoint(tmp_path / "missing.pkl")


def test_load_rejects_checksum_failure(tmp_path):
    fleet = _build(1)
    fleet.run(2)
    path = fleet.checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    with open(path, "rb") as handle:
        pickle.load(handle)  # the self-delimiting header pickle
        meta_start = handle.tell()
    raw[meta_start + 5] ^= 0xFF  # damage the meta region, not its digest
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_load_rejects_truncated_blob_segment(tmp_path):
    fleet = _build(1)
    fleet.run(2)
    path = fleet.checkpoint(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-64])  # tear the tail off the last tenant blob
    with pytest.raises(CheckpointError, match="truncated inside tenant"):
        load_checkpoint(path)


def test_latest_checkpoint_falls_back_past_corrupt_epoch(tmp_path):
    fleet = _build(1, checkpoint_dir=tmp_path, checkpoint_every=2)
    fleet.run(4)  # epochs 2 and 4 on disk
    newest = checkpoint_path(tmp_path, 4)
    newest.write_bytes(b"torn write")
    ckpt, path = latest_checkpoint(tmp_path)
    assert ckpt.next_bin == 2
    assert path == checkpoint_path(tmp_path, 2)

    checkpoint_path(tmp_path, 2).write_bytes(b"also torn")
    with pytest.raises(CheckpointError, match="every checkpoint failed"):
        latest_checkpoint(tmp_path)


def _rewrite_format_version(path, version):
    """Rewrite the header of a checkpoint file to claim ``version``."""
    with open(path, "rb") as handle:
        header = pickle.load(handle)
        body = handle.read()
    header["version"] = version
    path.write_bytes(
        pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL) + body
    )


def test_checkpoint_of_another_format_version_is_refused(tmp_path):
    """A build reads its own FORMAT_VERSION only: another one is a clean
    per-file error that names both, never a tenant quarantine."""
    assert FORMAT_VERSION == 9
    fleet = _build(1, checkpoint_dir=tmp_path, checkpoint_every=2)
    fleet.run(4)  # epochs 2 and 4 on disk
    # format 8 pickled every compiled step as a dataclass of literals
    _rewrite_format_version(checkpoint_path(tmp_path, 4), 8)
    with pytest.raises(
        CheckpointError, match="format version 8; this build reads version 9"
    ):
        load_checkpoint(checkpoint_path(tmp_path, 4))
    ckpt, path = latest_checkpoint(tmp_path)
    assert (ckpt.next_bin, path) == (2, checkpoint_path(tmp_path, 2))

    _rewrite_format_version(checkpoint_path(tmp_path, 2), 10)
    with pytest.raises(CheckpointError, match="version 8.*version 10"):
        FleetDriver.resume(tmp_path)
    with pytest.raises(CheckpointError, match="every checkpoint failed"):
        fleet.restore(tmp_path)
    assert fleet.arbiter.quarantined == frozenset()
    assert fleet.fleet_counters[FLEET_TENANT_QUARANTINES] == 0.0
    assert fleet.next_bin == 4  # refused before anything was rolled back


def test_write_is_atomic_no_temp_residue(tmp_path):
    fleet = _build(1)
    fleet.run(1)
    fleet.checkpoint(tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["fleet-ckpt-000001.pkl"]


# ----------------------------------------------------------------------
# per-tenant corruption -> quarantine, graceful degradation


def _corrupt_one_tenant(path, tenant_index):
    """Damage one tenant blob inside the file, keeping the file-level
    checksum valid: damage only the per-tenant checksum can catch."""
    ckpt = load_checkpoint(path)
    state = ckpt.tenants[tenant_index]
    state.blob = b"\x00" + state.blob[1:]
    assert not state.verify()
    write_checkpoint(ckpt, path.parent)
    return state.tenant


def test_corrupt_tenant_blob_is_quarantined_others_restore(tmp_path):
    fleet = _build(2)
    fleet.run(HALF)
    path = fleet.checkpoint(tmp_path)
    reference = {
        ctx.tenant: list(ctx.records) for ctx in fleet.tenants
    }
    victim = _corrupt_one_tenant(path, 1)

    resumed = FleetDriver.resume(path)
    assert resumed.arbiter.quarantined == frozenset({victim})
    counters = resumed.fleet_counters
    assert counters[FLEET_TENANT_QUARANTINES] == 1.0
    assert counters[CHECKPOINT_CORRUPTIONS_DETECTED] >= 1.0
    # the RECOVERY event lands on the quarantined tenant's own log
    kinds = [e.kind.value for e in resumed.tenant(victim).events.events()]
    assert "recovery" in kinds
    # healthy tenants restored bit-exactly and the fleet keeps running
    for ctx in resumed.tenants:
        if ctx.tenant != victim:
            assert list(ctx.records) == reference[ctx.tenant]
    # the victim runs on the fresh stack resume() built, and the report
    # counts that stack's work, not the checkpoint's record of a stack
    # that could not be loaded
    assert resumed.tenant(victim).telemetry.registry.read("exec_queries") == 0
    assert sum(r.queries_executed for r in resumed.tenant(victim).records) > 0
    assert resumed.report().counters == _registry_walk(resumed)
    resumed.run()
    assert resumed.next_bin == BINS
    # a quarantined tenant never gets admissions, harvests, or replays
    summary = resumed.arbiter.summary()
    assert summary["quarantined_tenants"] == 1


def test_blob_digest_detects_single_byte_flip():
    blob = b"fleet state bytes"
    assert blob_digest(blob) != blob_digest(b"X" + blob[1:])
    assert blob_digest(blob) == blob_digest(bytes(blob))

"""Epoch-trajectory lock: the literal ``(config_epoch, plan_epoch)`` walk.

Epoch numbers are inside ``runtime_snapshot`` and every run digest, so a
refactor of the allocator must not move a single one. The script below
touches every way an epoch changes — accounted primitives, buffer-pool
traffic, untokened and tokened bumps, a token re-applied from a restored
epoch, nested ``hypothetical`` with exact and inexact (pool-shrinking)
rollbacks, executor rollback, and ``restore`` — and the expected list was
recorded at the commit before ``_EpochCounter`` / ``rewind_epoch``
existed (3c5b42b), when ``Database`` carried two hand-written allocators
and the optimizer and executor each their own fingerprint guard.
"""

from repro.configuration.actions import CreateIndexAction, SetKnobAction
from repro.configuration.delta import ConfigurationDelta
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.knobs import BUFFER_POOL_KNOB, SCAN_THREADS_KNOB
from repro.dbms.storage_tiers import StorageTier
from repro.tuning.executors.sequential import SequentialExecutor

from tests.conftest import make_small_database

RECORDED = [
    (1, 0),  # create_table
    (2, 1),  # move_chunk (accounted: both epochs)
    (3, 1),  # pool admission: config only
    (4, 1),  # untokened config bump
    (5, 2),  # tokened config bump drags the plan epoch
    (5, 3),  # untokened plan bump
    (5, 4),  # tokened plan bump
    (3, 1),  # restore to the marked config epoch and its plan epoch
    (6, 2),  # same token from epoch 3: new config, memoised plan
    (3, 1),
    (7, 5),  # hypothetical(index)
    (8, 6),  # nested hypothetical(threads)
    (7, 5),  # exact rollback of the inner delta
    (3, 1),  # exact rollback of the outer delta
    (7, 5),  # revisit: memoised transitions land on the same epochs
    (8, 6),
    (7, 5),
    (3, 1),
    (7, 5),
    (12, 10),  # nested hypothetical(shrink pool to 0)
    (14, 11),  # inexact rollback: the pool lost its entries, fresh epoch
    (16, 12),  # ... and the outer rollback is inexact with it
    (17, 13),  # executor applies the index
    (16, 12),  # executor rollback, exact
    (19, 12),  # pool traffic
    (20, 15),  # executor applies the pool shrink
    (22, 16),  # executor rollback, inexact
    (3, 1),  # restore of an epoch whose plan mapping is still known
]


def test_epoch_trajectory_is_bit_identical_to_the_recorded_walk():
    db = make_small_database(rows=2_000, chunk_size=1_000)
    optimizer = WhatIfOptimizer(db)
    seen = []

    def note():
        seen.append((db.config_epoch, db.plan_epoch))

    index = ConfigurationDelta([CreateIndexAction("events", ("user",))])
    threads = ConfigurationDelta([SetKnobAction(SCAN_THREADS_KNOB, 8)])
    shrink = ConfigurationDelta([SetKnobAction(BUFFER_POOL_KNOB, 0.0)])

    note()
    db.move_chunk("events", 0, StorageTier.SSD)
    note()
    db.execute("SELECT COUNT(*) FROM events")
    note()

    start = db.config_epoch
    db.bump_config_epoch()
    note()
    db.bump_config_epoch("token-a")
    note()
    db.bump_plan_epoch()
    note()
    db.bump_plan_epoch("token-p")
    note()
    db.restore_config_epoch(start)
    note()
    db.bump_config_epoch("token-a")
    note()
    db.restore_config_epoch(start)
    note()

    for _ in range(2):
        with optimizer.hypothetical(index):
            note()
            with optimizer.hypothetical(threads):
                note()
            note()
        note()

    with optimizer.hypothetical(index):
        note()
        with optimizer.hypothetical(shrink):
            note()
        note()
    note()

    executor = SequentialExecutor()
    saved = executor.snapshot(db)
    report = executor.execute(index, db)
    note()
    executor.rollback(db, report.inverse_actions, saved)
    note()

    db.execute("SELECT COUNT(*) FROM events")
    note()
    saved = executor.snapshot(db)
    report = executor.execute(shrink, db)
    note()
    executor.rollback(db, report.inverse_actions, saved)
    note()

    db.restore_config_epoch(start)
    note()

    assert seen == RECORDED

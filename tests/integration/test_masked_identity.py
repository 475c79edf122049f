"""Decision identity across a change of cache keys.

Re-keying the compiled-plan and what-if cost caches changes how often
they hit, and so every ``plan_cache_*`` / ``plan_compile*`` /
``whatif_cache_*`` counter, the ``tuning_finished`` event's ``cache_*``
fields and its "(what-if cache: ...)" message — and must change nothing
else. Two scenarios shaped like the perf ledger's ``tune_loop`` and
``fleet_serial`` workloads run at seeds 1-3; what they decided — bin
records, event streams without the cache accounting, final
``ConfigurationInstance``, ``Database.counters``, arbitration — is
compared part by part against digests recorded at the commit before the
caches were re-keyed (bdfa7bc), so a mismatch names the part that moved.

What the re-keying bought is pinned beside it as counts, which repeat
exactly where timings do not: the ``tune_loop`` scenario at seed 1 made
2,709 what-if probes and 3,611 plan compiles under epoch keys, 669 and
1,090 under footprint keys; the ceilings sit a tenth above those.
"""

import dataclasses
import enum
import functools
import hashlib
import re

import numpy as np
import pytest

from repro import (
    ClosedLoopSimulation,
    ConstraintSet,
    Driver,
    DriverConfig,
    OrganizerConfig,
    ResourceBudget,
)
from repro.configuration import INDEX_MEMORY
from repro.configuration.config import ConfigurationInstance
from repro.core import PeriodicTrigger
from repro.fleet import build_fleet
from repro.tuning import standard_features
from repro.util.units import MIB
from repro.workload import build_retail_suite, generate_trace

BIN_MS = 60_000.0

_CACHE_NOTE = re.compile(r" \(what-if cache: [^)]*\)")


def _canonical(value):
    """``value`` as nested tuples whose ``repr`` is the same in every
    process (sets sorted, enums unwrapped, floats at 12 digits — the
    guard sums one distance in set order)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if isinstance(value, dict):
        return tuple(
            sorted(
                ((_canonical(k), _canonical(v)) for k, v in value.items()),
                key=repr,
            )
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_canonical(v) for v in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return f"{value:.12g}"
    return value


def _digest(value) -> str:
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()[:16]


def _masked_events(log) -> list[tuple]:
    stream = []
    for event in log.events():
        data = {
            k: v
            for k, v in event.data.items()
            if not k.endswith("seconds") and not k.startswith("cache_")
        }
        message = _CACHE_NOTE.sub("", event.message)
        stream.append((event.at_ms, event.kind, message, data))
    return stream


def _parts(contexts, records, arbitration=None) -> dict[str, str]:
    return {
        "records": _digest(records),
        "events": _digest(
            {ctx.tenant: _masked_events(ctx.events) for ctx in contexts}
        ),
        "configuration": _digest(
            {
                ctx.tenant: ConfigurationInstance.capture(ctx.database)
                for ctx in contexts
            }
        ),
        "counters": _digest(
            {ctx.tenant: ctx.database.counters.snapshot() for ctx in contexts}
        ),
        "arbitration": _digest(arbitration),
    }


@functools.cache
def _run_tune_loop(seed: int):
    """One tenant tuning every third bin (the ledger's ``tune_loop``);
    the tenant's context and its bin records."""
    suite = build_retail_suite(
        seed=seed, orders_rows=4_000, inventory_rows=1_000, chunk_size=1_024
    )
    db = suite.database
    trace = generate_trace(suite.families, suite.rates, 14, BIN_MS, seed)
    driver = Driver(
        standard_features(),
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 4.0 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=3 * BIN_MS)],
        config=DriverConfig(
            organizer=OrganizerConfig(
                horizon_bins=4, min_history_bins=4, cooldown_ms=BIN_MS
            )
        ),
    )
    db.plugin_host.attach(driver)
    records = ClosedLoopSimulation(db, trace, seed=seed).run()
    return driver.context, records


def _tune_loop(seed: int) -> dict[str, str]:
    ctx, records = _run_tune_loop(seed)
    return _parts([ctx], {ctx.tenant: records})


def _fleet_serial(seed: int) -> dict[str, str]:
    """Skewed tenants ticked in one process (the ledger's
    ``fleet_serial``)."""
    fleet = build_fleet(3, skew=0.8, seed=seed, bins=10, rows=3_000)
    report = fleet.run()
    contexts = fleet.tenants
    assert report.total_full_passes >= 1  # the identity is not vacuous
    return _parts(
        contexts,
        {ctx.tenant: list(ctx.records) for ctx in contexts},
        report.arbitration,
    )


SCENARIOS = {"tune_loop": _tune_loop, "fleet_serial": _fleet_serial}

#: recorded at bdfa7bc by running this file's scenarios
RECORDED: dict[tuple[str, int], dict[str, str]] = {
    ('fleet_serial', 1): {
        "records": "632dab2f5678cc02",
        "events": "f34315b4e0de9123",
        "configuration": "ff4a5c32ddb964da",
        "counters": "4948a8b8ba9b1f61",
        "arbitration": "0c1ed80de2ab7239",
    },
    ('fleet_serial', 2): {
        "records": "8ac1c75a791f59be",
        "events": "e8fbbf1473c62176",
        "configuration": "ed728c2c687f0b43",
        "counters": "6edaf4759541fd8b",
        "arbitration": "95d87e1232e36834",
    },
    ('fleet_serial', 3): {
        "records": "c9ed1b6d76dd9e08",
        "events": "5ef4333cc8ef0f86",
        "configuration": "ed728c2c687f0b43",
        "counters": "9cdb2709a7bace36",
        "arbitration": "95d87e1232e36834",
    },
    ('tune_loop', 1): {
        "records": "6898d47eb2d91e1f",
        "events": "f2ab8c3bee97dcc6",
        "configuration": "e21e015bc6518d36",
        "counters": "431c82460119d7b3",
        "arbitration": "dc937b59892604f5",
    },
    ('tune_loop', 2): {
        "records": "46fd79a3631986ec",
        "events": "cd7a233a79b6504c",
        "configuration": "47f08e2087584d4c",
        "counters": "48a121e0ec491e4d",
        "arbitration": "dc937b59892604f5",
    },
    ('tune_loop', 3): {
        "records": "57f1a2ccfa906bc1",
        "events": "dcb85633b4d2f05b",
        "configuration": "3057c91832c79f72",
        "counters": "9b164fd34aff96c6",
        "arbitration": "dc937b59892604f5",
    },
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_decisions_match_the_recording_made_before_the_rekeying(
    scenario, seed
):
    assert SCENARIOS[scenario](seed) == RECORDED[scenario, seed]


def test_a_fixed_tuning_scenario_stays_under_its_probe_and_compile_ceilings():
    ctx, _ = _run_tune_loop(1)
    assert ctx.database.counters.reconfigurations > 0  # it did tune
    assert ctx.whatif_stats.misses <= 740
    assert ctx.database.planner.registry.read("plan_compiles") <= 1_200


if __name__ == "__main__":  # pragma: no cover - the recorder
    import pprint

    pprint.pprint(
        {
            (name, seed): run(seed)
            for name, run in sorted(SCENARIOS.items())
            for seed in (1, 2, 3)
        }
    )

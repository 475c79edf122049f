"""The four workloads: what they build from a seed and how a bin runs.

All are closed loops: the simulation issues the next query when the
previous one returns, from this one process.

What the seed drives is what a client draws. The table contents and the
arrival schedule (queries per family per bin) are part of a workload's
definition, fixed like its sizes. On ``serve_*`` the seed draws every
query's literals and the order queries interleave in. On ``tune_loop``
and ``fleet_serial`` it draws the order only, and each family's literal
stream is fixed too: what a tuning pass proposes, and whether a replay
validates or the guard escalates, hangs on single literals. With seeded
literals ``tune_loop``'s timings spread by 7 to 12% over ten seeds on a
quiet box, and the fleet made 7 to 9 full passes and 6,265 to 8,987
what-if probes, a fifth of its wall time, from one seed to the next.

One *pass* is ``Sizes.warmup_bins`` untimed bins (they fill the plan
cache, the buffer pool and the predictor's first history, and in process
mode fork the workers) followed by ``Sizes.bins`` timed ones and
``finish``; ``outcome`` (digest and checks) is not timed. A run takes
each bin's fastest time over its passes, so the sizes were chosen for
many short passes: about 2 s on ``serve_*`` and 2.5 s on ``tune_loop``
and ``fleet_serial`` on a 2-core box, of which a 20 s run fits eleven
and eight.

Why these four:

- ``serve_templates``: every query re-uses one of 32 literal sets per
  family, so the compiled-plan cache always hits and no tuning runs.
  Execution dominates: kernel, bookkeeping and observe-tick gains show
  here and compile or tuning gains must not.
- ``serve_adhoc``: fresh literals over 20,000 customers overflow the
  512-entry plan cache, and the benchmark creates or drops an index
  every third bin so the plan epoch moves mid-stream. The same plan and
  dbms layers used the other way: misses, evictions and invalidation
  beside reads.
- ``tune_loop``: one tenant tuning every third bin under a 4 MiB index
  budget. Forecasting, dependence measurement, what-if, LP and executor
  do nearly all the work and query execution almost none.
- ``fleet_serial``: 4 Zipf-skewed tenants ticked in this process. Adds
  arbiter admission, prior replay and forecast-miss escalation across
  tenants.

``FleetProcess`` is the same fleet on 2 worker processes with a durable
checkpoint every 6 bins. Every ``fleet_serial`` run makes one pass of
it: its decisions must be identical, and what process mode adds (barrier
wait, tick RPCs, per-bin restore-point snapshots, checkpoint writes) is
read off that pass as per-layer metrics, next to its wall time,
``fleet.process_wall_ms``. It is not a workload with end-to-end bounds
of its own: three processes on the two shared cores measure the host's
scheduler as much as the program. Ten runs of it spread twice as wide as
the serial fleet's, and two sets of ten an hour apart differed by 16% in
throughput and 20% in ``bin_p50_ms``, against 3% for the single-process
workloads. Besides, the driver's time limit leaves room for four
workloads at a run length that is steady on a shared box.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from repro.configuration import INDEX_MEMORY
from repro.configuration.constraints import ConstraintSet, ResourceBudget
from repro.core.driver import Driver, DriverConfig
from repro.core.organizer import OrganizerConfig
from repro.core.simulation import ClosedLoopSimulation
from repro.core.triggers import NeverTrigger, PeriodicTrigger
from repro.dbms.storage_tiers import StorageTier
from repro.fleet import build_fleet, profile_rates
from repro.fleet.workload import TENANT_SEED_STEP
from repro.tuning import standard_features
from repro.util.rng import derive_rng
from repro.util.units import MIB
from repro.workload.benchmarks import build_retail_suite
from repro.workload.generator import QueryFamily
from repro.workload.trace import WorkloadTrace, generate_trace

import checks

BIN_MS = 60_000.0
#: Bins in the windows simulated query time is averaged over.
WINDOW_BINS = 4
#: Seed of the generated tables and of the arrival schedule (see above).
FIXED_SEED = 7


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on."""

    bins: int = 24
    warmup_bins: int = 2
    serve_rows: int = 40_000
    serve_inventory_rows: int = 10_000
    serve_chunk_rows: int = 2_048
    templates_rate_scale: float = 4.0
    adhoc_rate_scale: float = 2.5
    literals_per_family: int = 32
    tune_rows: int = 10_000
    tune_inventory_rows: int = 2_500
    tune_chunk_rows: int = 4_096
    tune_every_bins: int = 3
    tune_index_budget_mib: float = 4.0
    fleet_tenants: int = 4
    fleet_rows: int = 4_000
    fleet_checkpoint_every: int = 6
    oracle_queries: int = 200
    parse_queries: int = 2_000


FULL = Sizes()
#: ``selftest.py --smoke``: the same code paths in a few seconds.
SMOKE = replace(
    FULL,
    bins=3,
    warmup_bins=1,
    serve_rows=2_000,
    serve_inventory_rows=500,
    serve_chunk_rows=512,
    templates_rate_scale=1.0,
    adhoc_rate_scale=1.0,
    tune_rows=600,
    tune_inventory_rows=150,
    tune_chunk_rows=300,
    tune_every_bins=1,
    fleet_tenants=2,
    fleet_rows=600,
    fleet_checkpoint_every=2,
    oracle_queries=20,
    parse_queries=200,
)


@dataclass
class Outcome:
    """What one finished pass decided and counted (no host times)."""

    queries: int
    #: simulated mean query ms over the first and the final ``WINDOW_BINS``
    #: bins the pass ran
    first_window_ms: float
    final_window_ms: float
    digest: str
    counters: dict[str, float]
    plan: dict[str, float]
    whatif: dict[str, float]
    fleet: dict[str, float]
    #: correctness checks made while finishing, and how many failed
    checks: int = 0
    checks_failed: int = 0


def _window_mean_ms(records_by_tenant, start: int, stop: int | None) -> float:
    """Simulated mean query ms over a window of bins, all tenants."""
    queries = 0
    workload_ms = 0.0
    for records in records_by_tenant.values():
        for record in records[start:stop]:
            queries += record.queries_executed
            workload_ms += record.workload_ms
    return workload_ms / queries if queries else 0.0


def _replay(db, bins, families, rng) -> tuple[int, float]:
    """Run the schedule of ``bins`` once more with literals drawn from
    ``rng``; the count and the simulated ms of the queries.

    This is how ``sim_query_ms`` is taken (a workload's ``replay_ms``):
    the final ``WINDOW_BINS`` bins' schedule, literals from ``--seed``,
    against the configuration the pass ended with. Where the timed bins
    draw from fixed literal streams the windows' own means are the same at
    every seed; queries the tuner never saw say what its configuration is
    worth, and differ from seed to seed.
    """
    queries = db.counters.queries_executed
    query_ms = db.counters.total_query_ms
    for trace_bin in bins:
        for name, count in trace_bin.counts.items():
            for _ in range(count):
                db.execute(families[name].sample(rng))
    return (
        db.counters.queries_executed - queries,
        db.counters.total_query_ms - query_ms,
    )


def _own_literals(families, seed: int) -> dict[str, QueryFamily]:
    """``families`` each drawing literals from a fixed stream of its own,
    whatever generator the simulation hands it: ``--seed`` then decides
    the order the queries of a bin run in, not which queries they are."""

    def wrap(family: QueryFamily) -> QueryFamily:
        rng = derive_rng(seed, f"bench-literals-{family.name}")
        return QueryFamily(family.name, lambda _rng: family.sampler(rng))

    return {name: wrap(family) for name, family in families.items()}


class _SingleTenant:
    """One database, one driver, one closed-loop simulation."""

    tenants = 1

    def __init__(self, seed: int, sizes: Sizes, scratch: Path) -> None:
        del scratch  # only the process-mode fleet writes files
        self.seed = seed
        self.sizes = sizes
        self.records: list = []
        self.suite = self._build_suite()
        self.db = self.suite.database
        self.families = self._families()
        self.trace = generate_trace(
            self.families,
            self._rates(),
            sizes.warmup_bins + sizes.bins,
            BIN_MS,
            FIXED_SEED,
        )
        self.driver = self._driver()
        self.db.plugin_host.attach(self.driver)
        self.sim = ClosedLoopSimulation(self.db, self.trace, seed=seed)
        self._queries_before = 0

    def _families(self):
        return self.suite.families

    def _rates(self):
        return self.suite.rates

    def warm_up(self) -> None:
        for index in range(self.sizes.warmup_bins):
            self.run_bin(index)
        self._queries_before = self.db.counters.queries_executed

    def run_bin(self, index: int) -> None:
        self.records.append(self.sim.run_bin(index))

    def finish(self) -> None:
        """The timed end of a pass: nothing is left to do for one tenant."""

    def outcome(self) -> Outcome:
        ctx = self.driver.context
        records = {ctx.tenant: self.records}
        counters = ctx.telemetry.registry.snapshot_counters()
        outcome = Outcome(
            queries=self.db.counters.queries_executed - self._queries_before,
            first_window_ms=_window_mean_ms(records, 0, WINDOW_BINS),
            final_window_ms=_window_mean_ms(records, -WINDOW_BINS, None),
            digest=checks.state_digest([ctx], records, counters),
            counters=counters,
            plan=self.db.planner.cache_stats.as_dict(),
            whatif=ctx.whatif_stats.as_dict(),
            fleet={},
        )
        self._final_checks(outcome)
        return outcome

    def replay_ms(self) -> float:
        """``sim_query_ms``; call after ``outcome``, it moves the counters."""
        queries, query_ms = _replay(
            self.db,
            self.trace.bins[-WINDOW_BINS:],
            self._fresh_families(),
            derive_rng(self.seed, "bench-replay"),
        )
        return query_ms / queries

    def _fresh_families(self):
        """The families the replay draws from: literals follow its rng."""
        return self.families

    def _final_checks(self, outcome: Outcome) -> None:
        pass

    def close(self) -> None:
        self.db.plugin_host.detach(self.driver.name)


class _Serve(_SingleTenant):
    """Observe-only driver over a database with four cold chunks."""

    customers = 2_000

    def _build_suite(self):
        sizes = self.sizes
        suite = build_retail_suite(
            seed=FIXED_SEED,
            orders_rows=sizes.serve_rows,
            inventory_rows=sizes.serve_inventory_rows,
            chunk_size=sizes.serve_chunk_rows,
            n_customers=self.customers,
        )
        db = suite.database
        # three chunks on SSD and one on NVM, so the buffer pool and the
        # mixed-tier pricing path are exercised, not only all-DRAM plans
        chunks = db.table("orders").chunks()
        for chunk in chunks[:3]:
            db.move_chunk("orders", chunk.chunk_id, StorageTier.SSD)
        if len(chunks) > 3:
            db.move_chunk("orders", chunks[3].chunk_id, StorageTier.NVM)
        return suite

    def _driver(self) -> Driver:
        return Driver(standard_features(), triggers=[NeverTrigger()])

    def _final_checks(self, outcome: Outcome) -> None:
        rng = derive_rng(self.seed, "bench-oracle")
        names = sorted(self.families)
        queries = [
            self.families[names[i % len(names)]].sample(rng)
            for i in range(self.sizes.oracle_queries)
        ]
        outcome.checks += len(queries)
        outcome.checks_failed += checks.oracle_mismatches(self.db, queries)


class ServeTemplates(_Serve):
    name = "serve_templates"

    def _rates(self):
        return profile_rates(
            self.suite.rates, 0, self.sizes.templates_rate_scale
        )

    def _families(self):
        families = {}
        for name, family in self.suite.families.items():
            rng = derive_rng(self.seed, f"bench-literals-{name}")
            pool = [
                family.sampler(rng)
                for _ in range(self.sizes.literals_per_family)
            ]

            def sampler(rng, pool=pool):
                return pool[int(rng.integers(0, len(pool)))]

            families[name] = QueryFamily(name, sampler)
        return families


class ServeAdhoc(_Serve):
    name = "serve_adhoc"
    #: ten times the default, so fresh literals rarely repeat
    customers = 20_000

    def _rates(self):
        return profile_rates(self.suite.rates, 0, self.sizes.adhoc_rate_scale)

    def run_bin(self, index: int) -> None:
        # every third bin the physical design changes under the readers:
        # the plan epoch moves and every cached plan goes stale
        if index % 6 == 2:
            self.db.create_index("orders", ["customer"])
        elif index % 6 == 5:
            self.db.drop_index("orders", ["customer"])
        super().run_bin(index)


class TuneLoop(_SingleTenant):
    name = "tune_loop"

    def _families(self):
        return _own_literals(self.suite.families, FIXED_SEED)

    def _fresh_families(self):
        return self.suite.families

    def _build_suite(self):
        sizes = self.sizes
        return build_retail_suite(
            seed=FIXED_SEED,
            orders_rows=sizes.tune_rows,
            inventory_rows=sizes.tune_inventory_rows,
            chunk_size=sizes.tune_chunk_rows,
        )

    def _driver(self) -> Driver:
        sizes = self.sizes
        return Driver(
            standard_features(),
            constraints=ConstraintSet(
                [ResourceBudget(INDEX_MEMORY, sizes.tune_index_budget_mib * MIB)]
            ),
            triggers=[PeriodicTrigger(every_ms=sizes.tune_every_bins * BIN_MS)],
            config=DriverConfig(
                organizer=OrganizerConfig(
                    horizon_bins=4, min_history_bins=4, cooldown_ms=BIN_MS
                )
            ),
        )

    def _final_checks(self, outcome: Outcome) -> None:
        # tuning must have paid off in simulated query time
        if len(self.records) >= 8:
            outcome.checks += 1
            outcome.checks_failed += not (
                outcome.final_window_ms < outcome.first_window_ms
            )


class _Fleet:
    """``build_fleet`` with the sizes above; ``mode`` picks the engine."""

    mode: str | None = None

    def __init__(self, seed: int, sizes: Sizes, scratch: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tenants = sizes.fleet_tenants
        self.checkpoint_dir: Path | None = None
        extra = {}
        if self.mode == "process":
            self.checkpoint_dir = scratch / f"ckpt-{os.getpid()}"
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
            self.checkpoint_dir.mkdir(parents=True)
            extra = {
                "workers": min(2, os.cpu_count() or 1),
                "checkpoint_dir": self.checkpoint_dir,
                "checkpoint_every": sizes.fleet_checkpoint_every,
            }
        self.fleet = build_fleet(
            sizes.fleet_tenants,
            skew=0.8,
            seed=FIXED_SEED,
            bins=sizes.warmup_bins + sizes.bins,
            rows=sizes.fleet_rows,
            parallel=self.mode,
            **extra,
        )
        # build_fleet seeds data, schedule and simulation from one value;
        # only the simulation's interleaving follows --seed, and every
        # family draws its literals from a stream of its own (see the
        # module docstring). No bin has run, so process mode has not
        # forked yet: each worker advances the streams of its tenants.
        self._fresh_families = [
            ctx.trace.families for ctx in self.fleet.tenants
        ]
        for index, ctx in enumerate(self.fleet.tenants):
            ctx.trace = WorkloadTrace(
                ctx.trace.bins,
                _own_literals(ctx.trace.families, FIXED_SEED + index),
                ctx.trace.bin_duration_ms,
            )
            ctx.simulation = ClosedLoopSimulation(
                ctx.database, ctx.trace, seed=seed + TENANT_SEED_STEP * index
            )
        self._queries_before = 0

    def _queries(self) -> int:
        return sum(
            record.queries_executed
            for ctx in self.fleet.tenants
            for record in ctx.records
        )

    def warm_up(self) -> None:
        for index in range(self.sizes.warmup_bins):
            self.fleet.run_bin(index)
        self._queries_before = self._queries()

    def run_bin(self, index: int) -> None:
        self.fleet.run_bin(index)

    def finish(self) -> None:
        """The timed end of a pass: report() merges worker state back."""
        self.report = self.fleet.report()

    def outcome(self) -> Outcome:
        report = self.report
        contexts = self.fleet.tenants
        records = {ctx.tenant: list(ctx.records) for ctx in contexts}
        return Outcome(
            queries=self._queries() - self._queries_before,
            first_window_ms=_window_mean_ms(records, 0, WINDOW_BINS),
            final_window_ms=_window_mean_ms(records, -WINDOW_BINS, None),
            digest=checks.state_digest(
                contexts, records, report.counters, report.arbitration
            ),
            counters=report.counters,
            plan=report.plan.as_dict(),
            whatif=report.whatif.as_dict(),
            fleet={
                "full_passes": float(report.total_full_passes),
                "replays": float(report.total_replays),
                **report.fleet_counters,
            },
        )
    def replay_ms(self) -> float:
        """``sim_query_ms``; call after ``outcome``, it moves the counters.
        ``report()`` has brought every tenant's database back here."""
        queries = 0
        query_ms = 0.0
        for index, ctx in enumerate(self.fleet.tenants):
            replayed = _replay(
                ctx.database,
                ctx.trace.bins[-WINDOW_BINS:],
                self._fresh_families[index],
                derive_rng(self.seed, f"bench-replay-{index}"),
            )
            queries += replayed[0]
            query_ms += replayed[1]
        return query_ms / queries

    def restore_latest(self) -> bool:
        """Roll the finished fleet back to its newest durable checkpoint."""
        self.fleet.restore(self.checkpoint_dir)
        every = self.sizes.fleet_checkpoint_every
        total = self.sizes.warmup_bins + self.sizes.bins
        return self.fleet.next_bin == total - total % every

    def close(self) -> None:
        # report() has already stopped the workers; this covers a pass
        # that raised before reaching it
        try:
            self.fleet.sync_workers()
        finally:
            if self.checkpoint_dir is not None:
                shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


class FleetSerial(_Fleet):
    name = "fleet_serial"


class FleetProcess(_Fleet):
    """The twin ``run.py`` checks ``fleet_serial`` against, once a run."""

    name = "fleet_process"
    mode = "process"


WORKLOADS = {
    cls.name: cls
    for cls in (ServeTemplates, ServeAdhoc, TuneLoop, FleetSerial)
}


#: ``WORKLOADS[name](seed, sizes, scratch)`` sets a workload up from the
#: seed; ``scratch`` is the directory that takes durable checkpoints.

def sql_texts(seed: int, sizes: Sizes) -> list[str]:
    """Rendered SQL of sampled retail queries, for the parse side pass."""
    suite = build_retail_suite(
        seed=FIXED_SEED, orders_rows=1_000, inventory_rows=250, chunk_size=512
    )
    return [
        str(query)
        for query in suite.mix.sample_queries(sizes.parse_queries, seed)
    ]

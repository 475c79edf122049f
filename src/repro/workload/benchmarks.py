"""The retail benchmark suite: schema, data, and query families.

This is the workload the paper's introduction motivates — a mixed
analytical/transactional load over skewed data with hot and cold regions —
instantiated so that every tuning feature has real leverage:

- ``id`` and ``order_date`` are (almost) sorted → run-length and
  frame-of-reference encodings shine there, and only there;
- ``customer`` is Zipf-skewed → point lookups reward an index;
- ``recent_orders`` queries touch only the newest chunks → per-chunk
  decisions beat per-table decisions (experiment E7);
- low-cardinality string columns (``country``, ``status``, ``region``)
  reward dictionary encoding, which in turn shrinks indexes built on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbms.database import Database
from repro.dbms.hardware import HardwareProfile
from repro.dbms.schema import TableSchema
from repro.dbms.types import DataType
from repro.util.rng import derive_rng
from repro.workload.generator import QueryFamily, WorkloadMix
from repro.workload.predicate import Predicate
from repro.workload.query import Query
from repro.workload.trace import FamilyRate

_COUNTRIES = ["de", "us", "fr", "jp", "br", "in", "uk", "cn"]
_COUNTRY_P = [0.30, 0.22, 0.13, 0.10, 0.08, 0.07, 0.06, 0.04]
_STATUSES = ["completed", "shipped", "open", "cancelled", "returned"]
_STATUS_P = [0.55, 0.2, 0.15, 0.06, 0.04]
_REGIONS = ["north", "south", "east", "west", "central", "coastal", "mountain", "island"]


def _cdf(p: list[float]) -> np.ndarray:
    """``p``'s cumulative distribution, computed as ``Generator.choice``
    computes it."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


#: the per-query samplers' distributions, settled once: ``rng.choice(n,
#: p=...)`` validates ``p`` again on every call
_COUNTRY_CDF = _cdf(_COUNTRY_P)
_STATUS_CDF = _cdf(_STATUS_P)


def _pick(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """``int(rng.choice(len(cdf), p=p))`` for the ``p`` of ``cdf``: the
    same one uniform draw, searched the same way."""
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class BenchmarkSuite:
    """A populated database plus the query families that exercise it."""

    database: Database
    mix: WorkloadMix
    rates: dict[str, FamilyRate]
    seed: int

    @property
    def families(self) -> dict[str, QueryFamily]:
        return self.mix.families


def _zipf_pick(rng: np.random.Generator, n: int, exponent: float = 1.3) -> int:
    """A Zipf-distributed pick in [0, n)."""
    value = int(rng.zipf(exponent)) - 1
    return value % n


def _populate_orders(
    db: Database, rows: int, chunk_size: int, n_customers: int, n_days: int, seed: int
) -> None:
    rng = derive_rng(seed, "orders-data")
    schema = TableSchema.build(
        "orders",
        [
            ("id", DataType.INT),
            ("order_date", DataType.INT),
            ("customer", DataType.INT),
            ("country", DataType.STRING),
            ("status", DataType.STRING),
            ("price", DataType.FLOAT),
            ("quantity", DataType.INT),
            ("region", DataType.STRING),
            ("priority", DataType.INT),
        ],
    )
    table = db.create_table(schema, target_chunk_size=chunk_size)
    # Dates increase with row position (orders arrive in time order), so the
    # column is sorted and the newest chunks hold the newest days.
    dates = np.sort(rng.integers(0, n_days, rows))
    customers = np.array(
        [_zipf_pick(rng, n_customers) for _ in range(rows)], dtype=np.int64
    )
    table.append(
        {
            "id": np.arange(rows, dtype=np.int64),
            "order_date": dates,
            "customer": customers,
            "country": rng.choice(_COUNTRIES, rows, p=_COUNTRY_P),
            "status": rng.choice(_STATUSES, rows, p=_STATUS_P),
            "price": rng.uniform(1.0, 1000.0, rows).round(2),
            "quantity": rng.integers(1, 51, rows),
            "region": rng.choice(_REGIONS, rows),
            "priority": rng.integers(1, 6, rows),
        }
    )


def _populate_inventory(
    db: Database, rows: int, chunk_size: int, seed: int
) -> None:
    rng = derive_rng(seed, "inventory-data")
    schema = TableSchema.build(
        "inventory",
        [
            ("product", DataType.INT),
            ("warehouse", DataType.INT),
            ("category", DataType.STRING),
            ("stock", DataType.INT),
            ("reorder_level", DataType.INT),
        ],
    )
    table = db.create_table(schema, target_chunk_size=chunk_size)
    table.append(
        {
            "product": np.arange(rows, dtype=np.int64),
            "warehouse": rng.integers(0, 20, rows),
            "category": rng.choice(
                [f"cat_{i:02d}" for i in range(12)], rows
            ),
            "stock": rng.integers(0, 10_000, rows),
            "reorder_level": rng.integers(50, 500, rows),
        }
    )


def _orders_families(
    n_customers: int, n_days: int, orders_rows: int
) -> list[QueryFamily]:
    recent_window = max(3, n_days // 12)

    def point_customer(rng: np.random.Generator) -> Query:
        return Query(
            "orders",
            (Predicate("customer", "=", _zipf_pick(rng, n_customers)),),
            projection=("id", "price", "status"),
        )

    def recent_orders(rng: np.random.Generator) -> Query:
        hi = n_days - 1 - int(rng.integers(0, 3))
        lo = hi - recent_window
        country = _COUNTRIES[_pick(rng, _COUNTRY_CDF)]
        return Query(
            "orders",
            (
                Predicate("order_date", ">=", lo),
                Predicate("order_date", "<=", hi),
                Predicate("country", "=", country),
            ),
            aggregate="count",
        )

    def status_count(rng: np.random.Generator) -> Query:
        status = _STATUSES[_pick(rng, _STATUS_CDF)]
        return Query(
            "orders", (Predicate("status", "=", status),), aggregate="count"
        )

    def region_revenue(rng: np.random.Generator) -> Query:
        region = _REGIONS[int(rng.integers(0, len(_REGIONS)))]
        return Query(
            "orders",
            (Predicate("region", "=", region),),
            aggregate="sum",
            aggregate_column="price",
        )

    def quantity_range(rng: np.random.Generator) -> Query:
        lo = int(rng.integers(1, 45))
        return Query(
            "orders",
            (
                Predicate("quantity", ">=", lo),
                Predicate("quantity", "<=", lo + 2),
            ),
            aggregate="count",
        )

    def customer_recent(rng: np.random.Generator) -> Query:
        return Query(
            "orders",
            (
                Predicate("customer", "=", _zipf_pick(rng, n_customers)),
                Predicate("order_date", ">=", n_days - recent_window),
            ),
            aggregate="avg",
            aggregate_column="price",
        )

    def urgent_open(rng: np.random.Generator) -> Query:
        del rng  # fixed literals; still one template
        return Query(
            "orders",
            (
                Predicate("priority", "=", 5),
                Predicate("status", "=", "open"),
            ),
            aggregate="count",
        )

    def id_lookup(rng: np.random.Generator) -> Query:
        return Query(
            "orders",
            (Predicate("id", "=", int(rng.integers(0, orders_rows))),),
            projection=("customer", "price"),
        )

    return [
        QueryFamily("point_customer", point_customer),
        QueryFamily("recent_orders", recent_orders),
        QueryFamily("status_count", status_count),
        QueryFamily("region_revenue", region_revenue),
        QueryFamily("quantity_range", quantity_range),
        QueryFamily("customer_recent", customer_recent),
        QueryFamily("urgent_open", urgent_open),
        QueryFamily("id_lookup", id_lookup),
    ]


def _inventory_families(inventory_rows: int) -> list[QueryFamily]:
    def product_lookup(rng: np.random.Generator) -> Query:
        return Query(
            "inventory",
            (Predicate("product", "=", int(rng.integers(0, inventory_rows)),),),
            projection=("warehouse", "stock"),
        )

    def low_stock(rng: np.random.Generator) -> Query:
        return Query(
            "inventory",
            (
                Predicate("warehouse", "=", int(rng.integers(0, 20))),
                Predicate("stock", "<", 100),
            ),
            aggregate="count",
        )

    return [
        QueryFamily("product_lookup", product_lookup),
        QueryFamily("low_stock", low_stock),
    ]


def default_rates() -> dict[str, FamilyRate]:
    """Per-family rates with daily seasonality on the analytical families."""
    return {
        "point_customer": FamilyRate(base=30.0),
        "recent_orders": FamilyRate(base=14.0, amplitude=10.0, period_bins=24),
        "status_count": FamilyRate(base=6.0, amplitude=4.0, period_bins=24, phase_bins=6),
        "region_revenue": FamilyRate(base=5.0, amplitude=3.0, period_bins=24, phase_bins=12),
        "quantity_range": FamilyRate(base=3.0),
        "customer_recent": FamilyRate(base=8.0),
        "urgent_open": FamilyRate(base=4.0),
        "id_lookup": FamilyRate(base=20.0),
        "product_lookup": FamilyRate(base=12.0),
        "low_stock": FamilyRate(base=5.0, amplitude=3.0, period_bins=24),
    }


def build_retail_suite(
    seed: int = 7,
    orders_rows: int = 120_000,
    inventory_rows: int = 30_000,
    chunk_size: int = 16_384,
    n_customers: int = 2_000,
    n_days: int = 365,
    hardware: HardwareProfile | None = None,
) -> BenchmarkSuite:
    """Build a populated database and its workload mix."""
    db = Database(name="retail", hardware=hardware)
    _populate_orders(db, orders_rows, chunk_size, n_customers, n_days, seed)
    _populate_inventory(db, inventory_rows, chunk_size, seed)
    families = _orders_families(n_customers, n_days, orders_rows)
    families.extend(_inventory_families(inventory_rows))
    mix = WorkloadMix(families)
    return BenchmarkSuite(database=db, mix=mix, rates=default_rates(), seed=seed)


# ----------------------------------------------------------------------
# the telemetry (IoT) suite: one wide append-ordered table, monitoring mix

_SEVERITIES = ["ok", "warn", "error", "critical"]
_SEVERITY_P = [0.9, 0.07, 0.025, 0.005]


def _populate_readings(
    db: Database, rows: int, chunk_size: int, n_sensors: int, n_ticks: int, seed: int
) -> None:
    rng = derive_rng(seed, "readings-data")
    schema = TableSchema.build(
        "readings",
        [
            ("ts", DataType.INT),
            ("sensor", DataType.INT),
            ("site", DataType.INT),
            ("value", DataType.FLOAT),
            ("severity", DataType.STRING),
        ],
    )
    table = db.create_table(schema, target_chunk_size=chunk_size)
    # readings arrive in time order: ts is sorted (RLE/FoR-friendly) and
    # recent chunks hold recent ticks (hot-chunk structure)
    ts = np.sort(rng.integers(0, n_ticks, rows))
    sensors = rng.integers(0, n_sensors, rows)
    table.append(
        {
            "ts": ts,
            "sensor": sensors,
            "site": sensors % 25,
            "value": rng.normal(50.0, 15.0, rows).round(3),
            "severity": rng.choice(_SEVERITIES, rows, p=_SEVERITY_P),
        }
    )


def _telemetry_families(n_sensors: int, n_ticks: int) -> list[QueryFamily]:
    window = max(5, n_ticks // 20)

    def sensor_latest(rng: np.random.Generator) -> Query:
        return Query(
            "readings",
            (
                Predicate("sensor", "=", int(rng.integers(0, n_sensors))),
                Predicate("ts", ">=", n_ticks - window),
            ),
            projection=("ts", "value"),
        )

    def window_average(rng: np.random.Generator) -> Query:
        hi = n_ticks - 1 - int(rng.integers(0, 3))
        return Query(
            "readings",
            (
                Predicate("ts", ">=", hi - window),
                Predicate("ts", "<=", hi),
            ),
            aggregate="avg",
            aggregate_column="value",
        )

    def alerts(rng: np.random.Generator) -> Query:
        severity = "critical" if rng.random() < 0.5 else "error"
        return Query(
            "readings",
            (Predicate("severity", "=", severity),),
            aggregate="count",
        )

    def site_extremes(rng: np.random.Generator) -> Query:
        return Query(
            "readings",
            (Predicate("site", "=", int(rng.integers(0, 25))),),
            aggregate="max",
            aggregate_column="value",
        )

    def out_of_range(rng: np.random.Generator) -> Query:
        threshold = float(rng.uniform(85.0, 95.0))
        return Query(
            "readings",
            (Predicate("value", ">=", round(threshold, 1)),),
            aggregate="count",
        )

    return [
        QueryFamily("sensor_latest", sensor_latest),
        QueryFamily("window_average", window_average),
        QueryFamily("alerts", alerts),
        QueryFamily("site_extremes", site_extremes),
        QueryFamily("out_of_range", out_of_range),
    ]


def telemetry_rates() -> dict[str, FamilyRate]:
    """Monitoring mix: dashboards poll steadily, alerts spike with incidents."""
    return {
        "sensor_latest": FamilyRate(base=25.0),
        "window_average": FamilyRate(base=12.0, amplitude=6.0, period_bins=24),
        "alerts": FamilyRate(base=8.0),
        "site_extremes": FamilyRate(base=5.0, amplitude=3.0, period_bins=24, phase_bins=8),
        "out_of_range": FamilyRate(base=4.0),
    }


def build_telemetry_suite(
    seed: int = 23,
    rows: int = 150_000,
    chunk_size: int = 16_384,
    n_sensors: int = 500,
    n_ticks: int = 10_000,
    hardware: HardwareProfile | None = None,
) -> BenchmarkSuite:
    """An IoT/monitoring workload: one wide append-ordered readings table."""
    db = Database(name="telemetry", hardware=hardware)
    _populate_readings(db, rows, chunk_size, n_sensors, n_ticks, seed)
    mix = WorkloadMix(_telemetry_families(n_sensors, n_ticks))
    return BenchmarkSuite(
        database=db, mix=mix, rates=telemetry_rates(), seed=seed
    )

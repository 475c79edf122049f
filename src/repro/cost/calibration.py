"""Startup calibration for learned cost models.

"At database system start, a minimal set of queries is run to create
training data for a specialized cost model" (Section II-A.d). The suite
probes every table with full scans, per-column point and range predicates,
and aggregates, executes them, and feeds (features, runtime) pairs to a
:class:`~repro.cost.learned.LearnedCostModel`.
"""

from __future__ import annotations

from repro.configuration.actions import CreateIndexAction
from repro.configuration.delta import ConfigurationDelta
from repro.cost.learned import LearnedCostModel
from repro.cost.what_if import WhatIfOptimizer
from repro.dbms.database import Database
from repro.util.rng import derive_rng
from repro.workload.predicate import Predicate
from repro.workload.query import Query


def calibration_queries(db: Database, seed: int = 0) -> list[Query]:
    """A minimal query suite touching every table and column."""
    rng = derive_rng(seed, "calibration")
    queries: list[Query] = []
    for table in db.catalog.tables():
        queries.append(Query(table.name, aggregate="count"))
        for column in table.schema.column_names:
            stats = table.statistics(column)
            if stats.row_count == 0:
                continue
            if stats.data_type.is_numeric:
                lo = float(stats.min_value)
                hi = float(stats.max_value)
                point = lo + (hi - lo) * float(rng.uniform(0.2, 0.8))
                if stats.data_type.value == "int":
                    point = int(round(point))
                queries.append(
                    Query(
                        table.name,
                        (Predicate(column, "=", point),),
                        aggregate="count",
                    )
                )
                threshold = lo + (hi - lo) * float(rng.uniform(0.6, 0.95))
                if stats.data_type.value == "int":
                    threshold = int(round(threshold))
                queries.append(
                    Query(
                        table.name,
                        (Predicate(column, ">=", threshold),),
                        aggregate="count",
                    )
                )
            else:
                queries.append(
                    Query(
                        table.name,
                        (Predicate(column, "=", str(stats.min_value)),),
                        aggregate="count",
                    )
                )
    return queries


def run_startup_calibration(
    db: Database, model: LearnedCostModel, seed: int = 0
) -> int:
    """Execute the calibration suite, feed the model, and fit it.

    Returns the number of executed calibration queries. Executions are
    accounted (they happen at system start, on the real database).
    """
    queries = calibration_queries(db, seed)
    for query in queries:
        result = db.execute(query)
        model.observe(query, result.report.elapsed_ms)
    model.refit()
    return len(queries)


def run_design_exploration(
    db: Database, model: LearnedCostModel, seed: int = 0, columns_per_table: int = 3
) -> int:
    """Extend calibration with observations under *hypothetical* designs.

    A model trained only on the current configuration cannot price features
    it has never seen active (its index-coverage feature is constant zero).
    This pass builds an index per sampled column as a what-if
    (:meth:`WhatIfOptimizer.hypothetical`: raw apply, exact rollback —
    plans and costs cached before it are found again after), probes
    the calibration queries against it and feeds the observations.
    Returns the number of observations added.
    """
    queries = calibration_queries(db, seed)
    what_if = WhatIfOptimizer(db)
    observations = 0
    for table in db.catalog.tables():
        numeric = [
            column
            for column in table.schema.column_names
            if table.schema.data_type(column).is_numeric
        ][:columns_per_table]
        for column in numeric:
            already_indexed = all(
                chunk.has_index([column]) for chunk in table.chunks()
            )
            if already_indexed:
                continue
            delta = ConfigurationDelta(
                [CreateIndexAction(table.name, (column,))]
            )
            with what_if.hypothetical(delta):
                for query in queries:
                    if query.table != table.name:
                        continue
                    if not any(p.column == column for p in query.predicates):
                        continue
                    result = db.executor.execute(query, table, probe=True)
                    model.observe(query, result.report.elapsed_ms)
                    observations += 1
    if observations:
        model.refit()
    return observations

"""Correctness checks; every failure counts in ``failed``.

- ``state_digest``: one SHA-256 over everything a run decides — bin
  records, event streams without host-time keys, final physical
  configurations, tenant counters, arbitration. Equal digests across
  the repeats of a run show the workload is deterministic; an equal
  digest for ``fleet_serial`` and its process-mode twin shows the
  execution mode changed no decision.
- ``oracle_mismatches``: sampled queries against a direct numpy
  evaluation over the segments' ``values()``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import numpy as np

from repro.configuration.config import ConfigurationInstance

_OPS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def canonical(value):
    """``value`` as nested tuples whose ``repr`` is the same in every
    process: sets are sorted, enums and numpy scalars unwrapped, floats
    cut to 12 significant digits. The guard's forecast-miss distance sums
    a mix in set order, so its last digits follow the interpreter's
    per-process string-hash salt; the run's decisions do not."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return tuple(
            sorted(
                ((canonical(k), canonical(v)) for k, v in value.items()),
                key=repr,
            )
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((canonical(v) for v in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return f"{value:.12g}"
    return value


def _events(ctx) -> list[tuple]:
    stream = []
    for event in ctx.events.events():
        data = {
            k: v for k, v in event.data.items() if not k.endswith("seconds")
        }
        stream.append((event.at_ms, event.kind, event.message, data))
    return stream


def state_digest(contexts, records, counters=None, arbitration=None) -> str:
    """Digest of a finished run over ``contexts`` (tenant contexts).

    ``records`` maps tenant id to its bin records.
    """
    state = {
        "tenants": {
            ctx.tenant: (
                records[ctx.tenant],
                _events(ctx),
                ConfigurationInstance.capture(ctx.database),
                ctx.database.counters.snapshot(),
            )
            for ctx in contexts
        },
        "counters": counters,
        "arbitration": arbitration,
    }
    return hashlib.sha256(repr(canonical(state)).encode()).hexdigest()


def _evaluate(db, query):
    """(row count, aggregate value, projected columns) by plain numpy."""
    table = db.table(query.table)
    count = 0
    agg_parts = []
    columns = (
        ()
        if query.aggregate
        else (query.projection or tuple(table.schema.column_names))
    )
    out = {name: [] for name in columns}
    for chunk in table.chunks():
        mask = np.ones(chunk.row_count, dtype=bool)
        for predicate in query.predicates:
            values = chunk.segment(predicate.column).values()
            mask &= _OPS[predicate.op](values, predicate.value)
        count += int(mask.sum())
        if query.aggregate_column is not None:
            agg_parts.append(
                chunk.segment(query.aggregate_column).values()[mask]
            )
        for name in columns:
            out[name].append(chunk.segment(name).values()[mask])
    aggregate = None
    if query.aggregate == "count":
        aggregate = float(count)
    elif query.aggregate is not None:
        values = (
            np.concatenate(agg_parts) if agg_parts else np.zeros(0)
        ).astype(float)
        if values.size:
            aggregate = float(
                {"sum": np.sum, "avg": np.mean, "min": np.min, "max": np.max}[
                    query.aggregate
                ](values)
            )
    return count, aggregate, {n: np.concatenate(p) for n, p in out.items()}


def oracle_mismatches(db, queries) -> int:
    """How many of ``queries`` the database answers differently from numpy."""
    wrong = 0
    for query in queries:
        result = db.execute(query, materialize=True)
        count, aggregate, columns = _evaluate(db, query)
        ok = result.row_count == count
        if ok and query.aggregate is not None:
            got = result.aggregate_value
            if aggregate is None or got is None:
                # an aggregate over no rows: both sides must say so
                ok = aggregate is None and got is None
            else:
                ok = bool(np.isclose(float(got), aggregate, rtol=1e-9, atol=0))
        elif ok:
            for name, expected in columns.items():
                got = result.rows[name]
                if not np.array_equal(np.sort(got), np.sort(expected)):
                    ok = False
                    break
        wrong += not ok
    return wrong

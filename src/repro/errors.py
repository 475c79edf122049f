"""Exception hierarchy for the self-managing database framework.

Every error raised by this library derives from :class:`ReproError` so
applications can catch framework failures with a single ``except`` clause
while still distinguishing substrate problems (schema, execution) from
self-management problems (tuning, ordering).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A table/column definition is invalid or referenced incorrectly."""


class CatalogError(ReproError):
    """A catalog lookup failed (unknown table, duplicate registration)."""


class ExecutionError(ReproError):
    """A query could not be executed against the database."""


class SQLSyntaxError(ReproError):
    """The SQL-subset parser rejected a statement."""


class EncodingError(ReproError):
    """A segment encoding could not be applied or decoded."""


class IndexError_(ReproError):
    """An index operation failed (name chosen to avoid shadowing builtins)."""


class KnobError(ReproError):
    """A knob was set outside its domain or does not exist."""


class PlacementError(ReproError):
    """A chunk placement request referenced an unknown tier or chunk."""


class ConstraintError(ReproError):
    """A constraint definition is invalid or cannot be evaluated."""


class CostModelError(ReproError):
    """A cost model could not produce an estimate."""


class CalibrationError(CostModelError):
    """Cost model calibration failed (insufficient or degenerate data)."""


class ForecastError(ReproError):
    """A forecast model could not be fitted or evaluated."""


class TuningError(ReproError):
    """A tuner pipeline stage failed."""


class ActionError(TuningError):
    """A configuration action failed to apply.

    Carries the fault class the recovery machinery keys on: *transient*
    failures (lock timeouts, resource spikes) are worth retrying with
    backoff, *permanent* ones (out of memory, corrupted structure) are
    not and force a rollback of the surrounding pass.
    """

    def __init__(
        self,
        message: str,
        action: str | None = None,
        transient: bool = False,
    ) -> None:
        super().__init__(message)
        #: description of the failing action, when known
        self.action = action
        #: True for failures that may succeed on retry
        self.transient = transient


class TuningAbortedError(TuningError):
    """A tuning application failed mid-pass and was rolled back.

    Raised by the failure-aware tuning executor after it restored the
    pre-pass configuration. Carries the :class:`~repro.tuning.executors
    .sequential.ApplicationReport` of the aborted pass (what was applied, what
    was rolled back, retries spent) so callers can account for the wasted
    work; the tuner additionally attaches the proposed
    ``TuningResult`` and feature name on the way up.
    """

    def __init__(
        self,
        message: str,
        report: object | None = None,
        cause: ActionError | None = None,
    ) -> None:
        super().__init__(message)
        #: the executor's ApplicationReport of the aborted application
        self.report = report
        #: the ActionError that triggered the abort
        self.cause = cause
        #: feature being tuned (attached by Tuner.apply)
        self.feature: str | None = None
        #: the proposed TuningResult (attached by Tuner.apply)
        self.result: object | None = None


class SelectionError(TuningError):
    """A selector could not produce a feasible selection."""


class OrderingError(ReproError):
    """The tuning-order optimization failed (infeasible LP, bad input)."""


class PluginError(ReproError):
    """A plugin could not be attached, started, or stopped."""


class ConfigurationError(ReproError):
    """A configuration instance or delta is inconsistent."""

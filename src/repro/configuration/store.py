"""Configuration instance storage: the feedback loop's memory.

"When the configuration is adjusted, former configuration instances are
stored. This storing is central to establish a feedback loop for past
decisions by enabling the assessment of the impact of past tuning
decisions" (Section II-A.b). A committed pass — tuned or replayed — is
one record: the instance, what the tuners *predicted* the change would
be worth and what the cost model priced it at, feature by feature, and
the pass's probation (see repro.guard): the inverse actions retained
while the regression watchdog compares runtime KPIs against the
pre-commit baseline, and the mean it observed when the probation ended.

At most one record is on probation at a time. Inverse actions only
compose with the configuration state they were recorded against, so a
newer probation landing on top *supersedes* the older one (its rollback
material is discarded and it graduates early, resolved
:attr:`CommitResolution.SUPERSEDED`) rather than stacking unsoundly.

A record's id counts appends, so it stays valid across eviction of
older records; a ``commit_id`` counts opened probations from 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.configuration.actions import Action
from repro.configuration.config import ConfigurationInstance
from repro.errors import ConfigurationError

#: records kept; at least two, since the record on probation is never
#: evicted and its successor must fit beside it
CAPACITY = 256


class CommitResolution(enum.Enum):
    """How a record's probation ended."""

    #: the probation window elapsed without a confirmed regression
    PASSED = "passed"
    #: a confirmed KPI regression rolled the commit back
    ROLLED_BACK = "rolled_back"
    #: a newer commit landed before the window elapsed
    SUPERSEDED = "superseded"


@dataclass(frozen=True)
class FeatureOutcome:
    """What one feature's tuning contributed to a committed pass."""

    feature: str
    action_summaries: tuple[str, ...]
    predicted_benefit_ms: float
    #: the cost model's workload cost before minus after the feature's
    #: actions, priced at commit time (model vs model)
    measured_benefit_ms: float
    #: reconfiguration work of the feature's actions
    work_ms: float


@dataclass
class ConfigurationRecord:
    """One committed pass: its predicted/measured impact and probation."""

    instance: ConfigurationInstance
    applied_at_ms: float
    trigger: str
    predicted_benefit_ms: float
    #: model vs model at commit time, like the per-feature figure
    measured_benefit_ms: float
    #: reconfiguration work (sum of per-action costs, not elapsed time)
    reconfiguration_cost_ms: float
    #: forward actions of the pass, in application order
    actions: tuple[Action, ...] = ()
    #: one entry per feature whose application succeeded, in tuning order
    #: (empty for a replayed pass: its delta is not split by feature)
    outcomes: tuple[FeatureOutcome, ...] = ()
    #: features the commit answers for if the watchdog rolls it back: of
    #: a tuned pass, those whose outcome applied actions
    features: tuple[str, ...] = ()
    # -- probation (filled by open_probation / resolve) -----------------
    #: set once the record goes on probation
    commit_id: int | None = None
    #: inverse actions in application order (rollback applies them LIFO);
    #: kept only while on probation or rolled back
    inverse_actions: tuple[Action, ...] = ()
    #: pre-commit KPI baseline (mean of the guarded metric)
    baseline_ms: float | None = None
    #: busy samples the baseline was computed over
    baseline_sample_count: int = 0
    resolution: CommitResolution | None = None
    resolved_at_ms: float | None = None
    #: the guarded metric's post-commit mean when the watchdog resolved
    #: the probation (None when superseded: nothing was concluded)
    observed_ms: float | None = None


class ConfigurationInstanceStorage:
    """Append-only history of committed passes plus the one on probation."""

    def __init__(self) -> None:
        self._records: list[ConfigurationRecord] = []
        self._appended = 0
        self._active: ConfigurationRecord | None = None
        self._probations_opened = 0

    def append(self, record: ConfigurationRecord) -> int:
        """Store a record; returns its id. Ids count appends. Past
        capacity the oldest record goes, except the one on probation: it
        holds the only copy of its rollback material."""
        self._records.append(record)
        if len(self._records) > CAPACITY:
            del self._records[1 if self._records[0] is self._active else 0]
        self._appended += 1
        return self._appended - 1

    def __len__(self) -> int:
        return len(self._records)

    def latest(self) -> ConfigurationRecord | None:
        return self._records[-1] if self._records else None

    def history(self) -> tuple[ConfigurationRecord, ...]:
        return tuple(self._records)

    @property
    def active(self) -> ConfigurationRecord | None:
        """The record on probation, if any."""
        return self._active

    def open_probation(
        self,
        record: ConfigurationRecord,
        *,
        inverse_actions: tuple[Action, ...],
        baseline_ms: float,
        baseline_sample_count: int,
    ) -> ConfigurationRecord | None:
        """Put the record just appended on probation.

        Returns the record this one displaced (now resolved SUPERSEDED),
        or ``None``.
        """
        superseded = None
        if self._active is not None:
            superseded = self.resolve(
                CommitResolution.SUPERSEDED, record.applied_at_ms
            )
        self._probations_opened += 1
        record.commit_id = self._probations_opened
        record.inverse_actions = inverse_actions
        record.baseline_ms = baseline_ms
        record.baseline_sample_count = baseline_sample_count
        self._active = record
        return superseded

    def resolve(
        self,
        resolution: CommitResolution,
        now_ms: float,
        observed_ms: float | None = None,
    ) -> ConfigurationRecord:
        """End the active probation; returns its record."""
        if self._active is None:
            raise ConfigurationError("no record is on probation")
        record = self._active
        record.resolution = resolution
        record.resolved_at_ms = now_ms
        record.observed_ms = observed_ms
        # rollback material is only meaningful while on probation
        if resolution is not CommitResolution.ROLLED_BACK:
            record.inverse_actions = ()
        self._active = None
        return record

    def feedback(
        self, feature: str | None = None
    ) -> list[tuple[float, float]]:
        """(predicted, measured) benefit pairs available for learning:
        ``feature``'s outcomes, or with no feature named every pass's
        totals followed by its outcomes."""
        pairs = []
        for record in self._records:
            if feature is None:
                pairs.append(
                    (record.predicted_benefit_ms, record.measured_benefit_ms)
                )
            pairs.extend(
                (o.predicted_benefit_ms, o.measured_benefit_ms)
                for o in record.outcomes
                if feature is None or o.feature == feature
            )
        return pairs

"""Configuration instance storage: the feedback loop's memory.

"When the configuration is adjusted, former configuration instances are
stored. This storing is central to establish a feedback loop for past
decisions by enabling the assessment of the impact of past tuning
decisions" (Section II-A.b). Each record pairs the instance with what the
tuner *predicted* the change would be worth; measurements filled in later
let learned assessors calibrate their confidence. A record's id counts
appends, so it stays valid across eviction of older records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configuration.config import ConfigurationInstance
from repro.errors import ConfigurationError


@dataclass
class ConfigurationRecord:
    """One stored configuration change and its predicted/measured impact."""

    instance: ConfigurationInstance
    applied_at_ms: float
    trigger: str
    feature: str | None = None
    action_summaries: list[str] = field(default_factory=list)
    predicted_benefit_ms: float | None = None
    reconfiguration_cost_ms: float | None = None
    #: filled in later, once the effect has been observed
    measured_benefit_ms: float | None = None

    @property
    def prediction_error(self) -> float | None:
        """Relative error of the predicted benefit, if measured."""
        if self.predicted_benefit_ms is None or self.measured_benefit_ms is None:
            return None
        scale = max(abs(self.measured_benefit_ms), 1e-9)
        return (self.predicted_benefit_ms - self.measured_benefit_ms) / scale


class ConfigurationInstanceStorage:
    """Append-only history of configuration instances."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        self._capacity = capacity
        self._records: list[ConfigurationRecord] = []
        #: records dropped so far; the oldest retained record's id
        self._evicted = 0

    def append(self, record: ConfigurationRecord) -> int:
        """Store a record; returns its id. Ids count appends, so one
        names the same record for as long as it is retained."""
        self._records.append(record)
        if len(self._records) > self._capacity:
            del self._records[0]
            self._evicted += 1
        return self._evicted + len(self._records) - 1

    def __len__(self) -> int:
        return len(self._records)

    def latest(self) -> ConfigurationRecord | None:
        return self._records[-1] if self._records else None

    def history(self) -> tuple[ConfigurationRecord, ...]:
        return tuple(self._records)

    def record_measurement(self, record_id: int, measured_benefit_ms: float) -> None:
        index = record_id - self._evicted
        if not 0 <= index < len(self._records):
            raise ConfigurationError(f"no record with id {record_id}")
        self._records[index].measured_benefit_ms = measured_benefit_ms

    def feedback(
        self, feature: str | None = None
    ) -> list[tuple[float, float]]:
        """(predicted, measured) benefit pairs available for learning."""
        pairs = []
        for record in self._records:
            if feature is not None and record.feature != feature:
                continue
            if (
                record.predicted_benefit_ms is not None
                and record.measured_benefit_ms is not None
            ):
                pairs.append(
                    (record.predicted_benefit_ms, record.measured_benefit_ms)
                )
        return pairs

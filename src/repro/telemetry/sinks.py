"""The JSONL export of the telemetry spine.

Spans and structured events are each kept in one place in memory (the
tracer's root ring, the :class:`~repro.core.events.EventLog`); the one
export path writes both as flat dict records, one JSON object per line,
for offline analysis.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO


class JsonlSink:
    """Appends one JSON object per record to a file (opened lazily).

    Values that JSON cannot represent are stringified rather than
    rejected: telemetry must never take down the component it observes.
    The first record truncates the file; a sink reopened after
    :meth:`close`, or unpickled in another process, appends to what is
    already there.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._file: IO[str] | None = None
        self._written = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def records_written(self) -> int:
        return self._written

    def emit(self, record: dict[str, object]) -> None:
        if self._file is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            mode = "a" if self._written else "w"
            self._file = self._path.open(mode, encoding="utf-8")
        self._file.write(json.dumps(record, default=str) + "\n")
        self._written += 1

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __getstate__(self) -> dict[str, object]:
        # what was written reaches the file before a copy appends to it
        self.flush()
        return {**self.__dict__, "_file": None}

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    """Load the records a :class:`JsonlSink` wrote."""
    records: list[dict[str, object]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

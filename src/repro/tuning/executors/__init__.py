"""The tuning executor: sequential application with rollback."""

from repro.tuning.executors.sequential import ApplicationReport, SequentialExecutor

__all__ = [
    "ApplicationReport",
    "SequentialExecutor",
]

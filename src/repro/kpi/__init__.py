"""Runtime KPIs: definitions, derivation, and the monitor component."""

from repro.kpi.metrics import (
    CACHE_MISS_RATE,
    CPU_UTILIZATION,
    DBMS_KPIS,
    INDEX_MEMORY_BYTES,
    MEAN_QUERY_MS,
    MEMORY_BYTES,
    MEMORY_UTILIZATION,
    P99_QUERY_MS,
    QUERIES_EXECUTED,
    RECONFIGURATION_MS,
    SYSTEM_KPIS,
    THROUGHPUT_QPS,
    TOTAL_QUERY_MS,
    KPISample,
)
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.kpi.system import derive_system_kpis

__all__ = [
    "CACHE_MISS_RATE",
    "CPU_UTILIZATION",
    "DBMS_KPIS",
    "INDEX_MEMORY_BYTES",
    "KPISample",
    "MEAN_QUERY_MS",
    "MEMORY_BYTES",
    "MEMORY_UTILIZATION",
    "P99_QUERY_MS",
    "QUERIES_EXECUTED",
    "RECONFIGURATION_MS",
    "RuntimeKPIMonitor",
    "SYSTEM_KPIS",
    "THROUGHPUT_QPS",
    "TOTAL_QUERY_MS",
    "derive_system_kpis",
]

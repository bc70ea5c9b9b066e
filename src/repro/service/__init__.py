"""Concurrent query serving for the lazy warehouse.

The paper's promise — ETL work happens at query time, only for data a
query touches — must survive *concurrent* query time.  This package adds
the serving layer: admission control, per-session fairness and
single-flight extraction coalescing, on top of the thread-safe
cache/storage layers underneath.  :class:`ParallelExtractor` fans one
query's per-file extraction across a sharded warehouse's workers.
"""

from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.coalescer import (
    ClaimOutcome,
    CoalescerStats,
    ExtractionCoalescer,
    ExtractionFlight,
)
from repro.service.parallel import ExtractorStats, ParallelExtractor
from repro.service.service import (
    ClientSession,
    QueryOutcome,
    ServiceConfig,
    ServiceStats,
    WarehouseService,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "ClaimOutcome",
    "ClientSession",
    "CoalescerStats",
    "ExtractionCoalescer",
    "ExtractionFlight",
    "ExtractorStats",
    "ParallelExtractor",
    "QueryOutcome",
    "ServiceConfig",
    "ServiceStats",
    "WarehouseService",
]

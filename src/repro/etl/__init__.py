"""Lazy ETL — the paper's primary contribution.

Two interchangeable ingestion strategies over the same warehouse schema:

* :class:`~repro.etl.lazy.LazyETL` — the paper's system: initial loading
  covers only metadata; actual data is extracted/transformed/loaded at
  query time through a run-time plan rewrite, with an LRU extraction cache
  and mtime-based lazy refresh.
* :class:`~repro.etl.eager.EagerETL` — the traditional baseline: extract,
  transform and bulk load everything before the first query.

Both populate the warehouse's one SQL schema, :data:`SCHEMA`
(``mseed``), through a :class:`SourceAdapter`;
:class:`~repro.etl.mseed_adapter.MSeedAdapter` is the only format.
"""

from repro.etl.framework import SCHEMA, SourceAdapter, ETLReport
from repro.etl.metadata import (
    FileMeta,
    RecordColumns,
    HarvestResult,
    harvest_repository,
)
from repro.etl.cache import ExtractionCache, CacheStats
from repro.etl.mseed_adapter import MSeedAdapter
from repro.etl.lazy import LazyETL, LazyDataBinding
from repro.etl.eager import EagerETL
from repro.etl.refresh import MetadataSync, SyncReport

__all__ = [
    "SCHEMA",
    "SourceAdapter",
    "ETLReport",
    "FileMeta",
    "RecordColumns",
    "HarvestResult",
    "harvest_repository",
    "ExtractionCache",
    "CacheStats",
    "MSeedAdapter",
    "LazyETL",
    "LazyDataBinding",
    "EagerETL",
    "MetadataSync",
    "SyncReport",
]

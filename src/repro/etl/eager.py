"""Eager ETL — the traditional baseline the paper compares against.

Everything is extracted, transformed and bulk-loaded before the first
query can run: metadata *and* every sample of every file, with the
record-level transforms (timestamp materialisation) applied up front.
This is the "high initial investment of time" of §1, and the storage
blow-up of §4 (a Steim-compressed repository grows several-fold once the
samples and their 8-byte timestamps are materialised in the warehouse).
"""

from __future__ import annotations

import time

import numpy as np

from repro.db.column import Column
from repro.db.exec.engine import Database
from repro.db.types import DataType
from repro.etl.framework import SCHEMA, ETLReport, SourceAdapter
from repro.etl.lazy import LazyETL
from repro.etl.metadata import HarvestResult, harvest_repository
from repro.mseed.repository import Repository


class EagerETL:
    """Full extract → transform → bulk load, before any query."""

    def __init__(self, db: Database, repo: Repository,
                 adapter: SourceAdapter) -> None:
        self.db = db
        self.repo = repo
        self.adapter = adapter
        # Table creation is shared with the lazy pipeline (same schema).
        self._ddl = LazyETL(db, repo, adapter)

    def create_tables(self) -> None:
        self._ddl.create_tables()

    def initial_load(self) -> ETLReport:
        """Load metadata and all actual data; returns the cost report."""
        started = time.perf_counter()
        self.repo.reset_counters()
        harvest = harvest_repository(self.repo, self.adapter)
        self._ddl.load_metadata(harvest)
        # The ledger of harvested versions: what refresh() diffs against.
        self._ddl.index.load(harvest)
        samples = self._load_all_data(harvest)
        return ETLReport(
            strategy="eager",
            seconds=time.perf_counter() - started,
            files_listed=len(harvest.files),
            files_opened=len(harvest.files),
            records_loaded=len(harvest.records),
            samples_loaded=samples,
            bytes_read=self.repo.bytes_read,
        )

    def _load_all_data(self, harvest: HarvestResult) -> int:
        """Extract every file, then append D once: appending per file
        would re-concatenate the growing columns each time."""
        batches = [batch for batch in (self._file_batch(meta.uri)
                                       for meta in harvest.files) if batch]
        uri_key = self.adapter.key_columns[0]
        if not batches:
            return 0
        return self.db.bulk_insert((SCHEMA, "data"), {
            name: (Column.concat if name == uri_key else np.concatenate)(
                [batch[name] for batch in batches])
            for name in batches[0]
        })

    def _file_batch(self, uri: str) -> dict[str, "np.ndarray | Column"]:
        """One file's D rows as columns (empty if it has none)."""
        data_cols = [spec.name for spec in self.adapter.data_columns()
                     if spec.name not in self.adapter.key_columns]
        extracted = self.adapter.extract(self.repo, uri, None, data_cols)
        uri_key, seq_key = self.adapter.key_columns
        rows = extracted.total_rows()
        if rows == 0:
            return {}
        return {
            uri_key: Column.constant(DataType.VARCHAR, uri, rows),
            seq_key: np.repeat(extracted.seq_nos, extracted.counts),
            **extracted.columns,
        }

"""Repository refresh: incremental metadata sync and eager re-loading.

The paper claims Lazy ETL "makes updating and extending a warehouse with
modified and additional files more efficient" (§1).  Two halves implement
that:

* query-time staleness handling is the lazy binding's one observation
  (:meth:`repro.etl.lazy.LazyDataBinding.observe`) — updated files are
  re-harvested and re-extracted transparently "when the data warehouse
  is queried";
* :class:`MetadataSync` here keeps the *metadata* tables aligned with the
  repository: new files gain F/R rows, modified files are re-harvested,
  vanished files are dropped.  Only changed files are touched.  It asks
  the same ledger the same question (is the listed ``FileInfo`` the
  version the metadata was harvested from?) and drops derived state
  through the same step, so a rewrite is reacted to once, whoever sees
  it first.

For the eager baseline, :class:`EagerRefresh` must additionally re-extract
every changed file's actual data — the cost experiment E6 measures.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from repro.errors import FileMissingError, MSeedError
from repro.etl.eager import EagerETL
from repro.etl.lazy import LazyETL
from repro.etl.metadata import FileMeta, RecordColumns

logger = logging.getLogger("repro.etl.refresh")


@dataclass
class SyncReport:
    """What one refresh pass did and cost."""

    seconds: float = 0.0
    added: list[str] = field(default_factory=list)
    updated: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    samples_reloaded: int = 0

    @property
    def changed(self) -> int:
        return len(self.added) + len(self.updated) + len(self.removed)


class MetadataSync:
    """Incremental metadata refresh for a lazy warehouse."""

    def __init__(self, lazy: LazyETL) -> None:
        self.lazy = lazy

    def _forget(self, uri: str) -> None:
        """A changed or removed file: drop what was derived from it and
        its F/R rows (the eager pipeline's DDL helper has no binding —
        nothing is derived lazily there)."""
        if self.lazy.binding is not None:
            self.lazy.binding.drop_derived_state(uri)
        self.lazy.delete_file_metadata(uri)

    def _harvest_or_none(self, info):
        """Harvest one file, or ``None`` if it vanished since the scan.

        ``sync`` lists the repository and then opens each changed file; a
        file deleted in that window (live archives do this constantly)
        must degrade to "removed", not crash the whole sync pass.
        """
        try:
            return self.lazy.harvest_single(info)
        except (FileMissingError, FileNotFoundError) as exc:
            logger.warning("file %s vanished during sync: %s",
                           info.uri, exc)
            return None
        except MSeedError as exc:
            # Torn mid-rewrite content: treat like a vanished file; the
            # next sync will pick the file up once it is stable again.
            logger.warning("file %s unreadable during sync "
                           "(torn rewrite?): %s", info.uri, exc)
            return None

    def sync(self) -> SyncReport:
        """One incremental pass; touches only changed files."""
        started = time.perf_counter()
        report = SyncReport()
        index = self.lazy.index
        current = {info.uri: info for info in self.lazy.repo.list_files()}

        files: list[FileMeta] = []
        records: list[RecordColumns] = []
        for uri, info in current.items():
            if index.matches(info):
                continue
            known = index.version(uri) is not None
            if known:
                self._forget(uri)
            harvested = self._harvest_or_none(info)
            if harvested is None:
                # Vanished since the scan.  A new file never entered the
                # warehouse — nothing to roll back; a known one's
                # metadata is already deleted, so finish the removal
                # instead of re-adding it.
                if known:
                    index.drop_file(uri)
                    report.removed.append(uri)
                continue
            files.append(harvested[0])
            records.append(harvested[1])
            (report.updated if known else report.added).append(uri)
        for uri in index.files():
            if uri in current:
                continue
            self._forget(uri)
            index.drop_file(uri)
            report.removed.append(uri)

        self.lazy.insert_metadata(files, RecordColumns.concat(records))
        report.seconds = time.perf_counter() - started
        return report


class EagerRefresh:
    """Refresh for the eager baseline: changed files re-extract fully."""

    def __init__(self, eager: EagerETL) -> None:
        self.eager = eager
        # Reuse the metadata diffing by delegating to a sync over the same
        # tables; the eager pipeline shares the lazy DDL object.
        self._meta_sync = MetadataSync(eager._ddl)

    def refresh(self) -> SyncReport:
        """Metadata sync plus full re-extraction of changed files' data."""
        started = time.perf_counter()
        report = self._meta_sync.sync()
        for uri in report.updated + report.removed:
            self.eager.delete_file_data(uri)
        for uri in report.added + report.updated:
            report.samples_reloaded += self.eager.load_file_data(uri)
        report.seconds = time.perf_counter() - started
        return report

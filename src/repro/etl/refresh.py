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
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import FileMissingError, MSeedError
from repro.etl.eager import EagerETL
from repro.etl.lazy import LazyETL
from repro.etl.metadata import FileMeta, RecordColumns
from repro.mseed.repository import FileInfo

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

    def _remove(self, uri: str) -> None:
        """A removed file: drop what was derived from it, its F/R rows and
        its index entry (the eager pipeline's DDL helper has no binding —
        nothing is derived lazily there)."""
        if self.lazy.binding is not None:
            self.lazy.binding.drop_derived_state(uri)
        self.lazy.delete_file_metadata(uri)
        self.lazy.index.drop_file(uri)

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

    def _swap(self, info: FileInfo, meta: FileMeta,
              records: RecordColumns) -> bool:
        """Replace a known file's state with its harvested version
        ``info`` in one step: derived state, record index and ledger, F/R
        rows.  Takes the file's stripe lock and then the refresh lock, the
        order :meth:`~repro.etl.lazy.LazyDataBinding.observe` takes them
        in.  ``False``, and nothing changed, when an observer has already
        moved the ledger to ``info``."""
        binding = self.lazy.binding
        with self.lazy.cache.file_lock(info.uri), \
                (nullcontext() if binding is None else binding.refresh_lock):
            if self.lazy.index.matches(info):
                return False
            if binding is not None:
                binding.drop_derived_state(info.uri)
            self.lazy.install_file_metadata(info, meta, records)
        return True

    def sync(self) -> SyncReport:
        """One incremental pass; touches only changed files.

        A changed file is harvested before any of its state is touched,
        outside every lock: a query planned meanwhile still sees the old
        version whole, and the swap to the new one is one step.
        """
        started = time.perf_counter()
        report = SyncReport()
        index = self.lazy.index
        current = {info.uri: info for info in self.lazy.repo.list_files()}

        added: list[tuple[FileInfo, FileMeta, RecordColumns]] = []
        for uri, info in current.items():
            if index.matches(info):
                continue
            known = index.version(uri) is not None
            harvested = self._harvest_or_none(info)
            if harvested is None:
                # Vanished since the scan.  A new file never entered the
                # warehouse — nothing to roll back; a known one is
                # removed instead of kept at its old version.
                if known:
                    self._remove(uri)
                    report.removed.append(uri)
            elif not known:
                added.append((info, *harvested))
                report.added.append(uri)
            elif self._swap(info, *harvested):
                report.updated.append(uri)
        for uri in index.files():
            if uri not in current:
                self._remove(uri)
                report.removed.append(uri)

        for info, _meta, records in added:
            index.replace_file(info, records)
        self.lazy.insert_metadata(
            [meta for _info, meta, _records in added],
            RecordColumns.concat([records for *_, records in added]))
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

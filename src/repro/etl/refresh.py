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

Both halves change a file's rows through :func:`install`, one table
mutation per table.  For the eager baseline, :class:`EagerRefresh` must
additionally re-extract every changed file's actual data, which rides in
the same swap.  The benchmark's ``alt_ms_p50`` of the
``cache_churn_rewrite`` workload is a rewrite plus ``sync()`` on a lazy
warehouse; no workload runs an eager refresh.
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.errors import FileMissingError, MSeedError
from repro.etl.framework import SCHEMA
from repro.etl.metadata import FileMeta, RecordColumns
from repro.mseed.repository import FileInfo

if TYPE_CHECKING:
    from repro.etl.eager import EagerETL
    from repro.etl.lazy import LazyETL

logger = logging.getLogger("repro.etl.refresh")


def install(lazy: LazyETL, uri: str,
            version: Optional[tuple[FileInfo, RecordColumns]],
            rows: Mapping[str, Optional[Mapping]]) -> None:
    """The one per-file swap: make one file's new version current.

    The record index entry and ledger move to ``version`` (``None``: the
    file is gone), then each table of ``rows`` (by name: ``"files"``,
    ``"records"`` and, eager, ``"data"``) has the file's rows replaced by
    the new ones (``None`` or empty: none) in one table mutation — one
    version bump and one invalidation per table, no SQL text.  A query
    sees each table with the old file or the new one, never neither.
    Tables change one after another: consistency *across* tables is not
    promised.  Callers built everything first, and hold the file's
    stripe lock and the refresh lock, in that order.
    """
    if version is None:
        lazy.index.drop_file(uri)
    else:
        lazy.index.replace_file(*version)
    key = lazy.adapter.key_columns[0]
    for table, batch in rows.items():
        lazy.db.replace_matching((SCHEMA, table), key, uri, batch)


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

    def _rows(self, uri: str,
              harvested: Optional[tuple[FileMeta, RecordColumns]]) -> dict:
        """A file's new rows per table; ``harvested`` ``None``: it has
        none.  A lazy warehouse's D is virtual, so F and R only."""
        if harvested is None:
            return {"files": None, "records": None}
        return self.lazy.metadata_rows(*harvested)

    def _harvest_or_none(self, info: FileInfo):
        """Harvest one file and build its rows — ``((info, records),
        rows)`` — or ``None`` if it vanished since the scan.

        ``sync`` lists the repository and then opens each changed file; a
        file deleted in that window (live archives do this constantly)
        must degrade to "removed", not crash the whole sync pass.
        """
        try:
            harvested = self.lazy.harvest_single(info)
            return (info, harvested[1]), self._rows(info.uri, harvested)
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

    def _remove(self, uri: str) -> None:
        """A removed file: its derived state, index entry and rows go."""
        self._swap(uri, None, self._rows(uri, None))

    def _swap(self, uri: str,
              version: Optional[tuple[FileInfo, RecordColumns]],
              rows: dict) -> bool:
        """Replace a file's state with its harvested ``version`` and
        ``rows`` (see :func:`install`) in one step: derived state, then
        :func:`install`.  Takes the file's stripe lock and then the
        refresh lock, the order
        :meth:`~repro.etl.lazy.LazyDataBinding.observe` takes them in.
        ``False``, and nothing changed, when an observer has already
        moved the ledger to the harvested ``FileInfo``."""
        lazy, binding = self.lazy, self.lazy.binding
        with lazy.cache.file_lock(uri), \
                (nullcontext() if binding is None else binding.refresh_lock):
            if version is not None and lazy.index.matches(version[0]):
                return False
            if binding is not None:
                binding.drop_derived_state(uri)
            install(lazy, uri, version, rows)
        return True

    def sync(self) -> SyncReport:
        """One incremental pass; touches only changed files.

        A changed file is harvested (and its rows built) before any of
        its state is touched, outside every lock: a query planned
        meanwhile still sees the old version whole, and the swap to the
        new one is one step per table.
        """
        started = time.perf_counter()
        report = SyncReport()
        index = self.lazy.index
        current = {info.uri: info for info in self.lazy.repo.list_files()}
        for uri, info in current.items():
            if index.matches(info):
                continue
            known = index.version(uri) is not None
            built = self._harvest_or_none(info)
            if built is None:
                # Vanished since the scan.  A new file never entered the
                # warehouse — nothing to roll back; a known one is
                # removed instead of kept at its old version.
                if known:
                    self._remove(uri)
                    report.removed.append(uri)
            elif self._swap(uri, *built):
                (report.updated if known else report.added).append(uri)
                data = built[1].get("data")
                if data:
                    report.samples_reloaded += len(next(iter(data.values())))
        for uri in index.files():
            if uri not in current:
                self._remove(uri)
                report.removed.append(uri)
        report.seconds = time.perf_counter() - started
        return report


class EagerRefresh(MetadataSync):
    """Refresh for the eager baseline: a changed file is re-extracted in
    full, and its D rows ride in the same swap as its F/R rows."""

    def __init__(self, eager: EagerETL) -> None:
        # The eager pipeline's tables, index and locks are its lazy DDL
        # object's.
        super().__init__(eager._ddl)
        self.eager = eager

    def _rows(self, uri: str,
              harvested: Optional[tuple[FileMeta, RecordColumns]]) -> dict:
        return {**super()._rows(uri, harvested),
                "data": None if harvested is None
                else self.eager._file_batch(uri)}

"""Metadata harvesting at three granularities.

The paper prefers eagerly loading metadata because it is "smaller in size
and cheaper to acquire than actual data ... even cheaper if metadata is
encoded in the filename".  The three :class:`Granularity` levels map that
cost spectrum (experiment E9 sweeps them):

* ``FILENAME`` — parse the file name, never open the file.  F is exact
  for stream identity, approximate for time span; R holds one pseudo
  record (seq_no 0 = "whole file").
* ``FILE`` — read the first record header only; adds exact sample rate,
  encoding and a good span estimate.  R still holds the pseudo record.
* ``RECORD`` — header-scan every record (the paper's setting): R is exact
  per record, enabling record-level extraction pruning.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import MSeedError
from repro.etl.framework import SourceAdapter
from repro.mseed.repository import FileInfo, Repository

logger = logging.getLogger("repro.etl.metadata")

WHOLE_FILE_SEQ = 0
"""Sentinel seq_no meaning "the entire file" (coarse granularities)."""


class Granularity(enum.Enum):
    FILENAME = "filename"
    FILE = "file"
    RECORD = "record"


@dataclass
class FileMeta:
    """Canonical file-level metadata (one row of F)."""

    uri: str
    size: int
    mtime_ns: int
    dataquality: str = "D"
    network: str = ""
    station: str = ""
    location: str = ""
    channel: str = ""
    encoding: str = ""
    record_length: int = 0
    n_records: int = 0
    start_time_us: int = 0
    end_time_us: int = 0
    sample_rate: float = 0.0
    exact_span: bool = True


@dataclass
class RecordMeta:
    """Canonical record-level metadata (one row of R)."""

    uri: str
    seq_no: int
    start_time_us: int
    end_time_us: int
    frequency: float
    sample_count: int
    timing_quality: int = 0


@dataclass
class HarvestResult:
    """Everything initial loading produced, plus what it cost."""

    granularity: Granularity
    files: list[FileMeta] = field(default_factory=list)
    records: list[RecordMeta] = field(default_factory=list)
    files_opened: int = 0
    bytes_read: int = 0
    seconds: float = 0.0
    skipped: list[tuple[str, str]] = field(default_factory=list)


def harvest_repository(
    repo: Repository,
    adapter: SourceAdapter,
    granularity: Granularity = Granularity.RECORD,
    *,
    strict: bool = False,
) -> HarvestResult:
    """Harvest metadata for every file in the repository.

    Real archives contain the occasional corrupt or foreign file; by
    default those are *skipped* (recorded in ``skipped`` and logged as a
    warning) so one bad volume cannot block bootstrapping a warehouse
    over millions of files.  ``strict=True`` raises instead.
    """
    started = time.perf_counter()
    result = HarvestResult(granularity=granularity)
    reads_before = repo.bytes_read
    for info in repo.list_files():
        try:
            meta, records, opened = harvest_file_at(repo, adapter, info,
                                                    granularity)
        except MSeedError as exc:
            if strict:
                raise
            result.skipped.append((info.uri, str(exc)))
            logger.warning("skipping corrupt file %s: %s", info.uri, exc)
            continue
        result.files_opened += opened
        result.files.append(meta)
        result.records.extend(records)
    result.bytes_read = repo.bytes_read - reads_before
    result.seconds = time.perf_counter() - started
    return result


def harvest_file_at(
    repo: Repository, adapter: SourceAdapter, info: FileInfo,
    granularity: Granularity,
) -> tuple[FileMeta, list[RecordMeta], bool]:
    """Harvest one file: ``(F row, R rows, whether it was opened)``."""
    if granularity is Granularity.FILENAME:
        meta = adapter.harvest_from_filename(info)
        if meta is not None:
            return meta, [_pseudo_record(meta)], False
        # A foreign file name: fall back to opening the header.
    meta, records = adapter.harvest_file(
        repo, info, per_record=granularity is Granularity.RECORD)
    return meta, records, True


def _pseudo_record(meta: FileMeta) -> RecordMeta:
    """The whole-file pseudo record used below RECORD granularity."""
    return RecordMeta(
        uri=meta.uri,
        seq_no=WHOLE_FILE_SEQ,
        start_time_us=meta.start_time_us,
        end_time_us=meta.end_time_us,
        frequency=meta.sample_rate,
        sample_count=0,
    )


@dataclass
class RecordSpan:
    """Slim record descriptor kept in the in-memory index for pruning."""

    seq_no: int
    start_time_us: int
    end_time_us: int
    sample_count: int


class RecordIndex:
    """In-memory mirror of record metadata, used by lazy extraction.

    The run-time rewrite asks this index two questions: which records of a
    file overlap the query's time bounds, and what a file's full record
    list is.  It is built from the initial harvest and maintained by
    :class:`repro.etl.refresh.MetadataSync`.

    It is also the warehouse's **freshness ledger**: per file, the
    :class:`~repro.mseed.repository.FileInfo` (size + mtime) its rows
    were harvested from — the in-memory mirror of the files table's
    ``file_size``/``mtime_ns`` columns, updated at exactly the points
    metadata enters or leaves.  "Which version of this file does the
    warehouse believe in" has this one answer; everything derived from a
    file (cache entries, promoted units, recycled intermediates) is
    good iff it was derived under :meth:`version`.
    """

    def __init__(self) -> None:
        self._by_file: dict[str, list[RecordSpan]] = {}
        self._exact: dict[str, bool] = {}
        self._versions: dict[str, FileInfo] = {}

    def load(self, result: HarvestResult) -> None:
        for record in result.records:
            self.add_record(record)
        for meta in result.files:
            self._exact[meta.uri] = (
                result.granularity is Granularity.RECORD
            )
            self._versions[meta.uri] = FileInfo(meta.uri, meta.size,
                                                meta.mtime_ns)

    def add_record(self, record: RecordMeta) -> None:
        self._by_file.setdefault(record.uri, []).append(
            RecordSpan(
                seq_no=record.seq_no,
                start_time_us=record.start_time_us,
                end_time_us=record.end_time_us,
                sample_count=record.sample_count,
            )
        )

    def replace_file(self, info: FileInfo, records: list[RecordMeta],
                     exact: bool) -> None:
        """Install one file's records, harvested from version ``info``."""
        self._by_file[info.uri] = []
        for record in records:
            self.add_record(record)
        self._exact[info.uri] = exact
        self._versions[info.uri] = info

    def drop_file(self, uri: str) -> None:
        self._by_file.pop(uri, None)
        self._exact.pop(uri, None)
        self._versions.pop(uri, None)

    def version(self, uri: str) -> Optional[FileInfo]:
        """The version ``uri``'s metadata was harvested from."""
        return self._versions.get(uri)

    def matches(self, info: FileInfo) -> bool:
        """The one freshness predicate: is ``info`` the version this
        file's metadata was harvested from?  Whole-``FileInfo`` equality,
        so a same-mtime rewrite that changed the size is still seen; a
        same-size, same-mtime rewrite is invisible to any stat check."""
        return self._versions.get(info.uri) == info

    def files(self) -> list[str]:
        return sorted(self._versions)

    def spans(self, uri: str) -> list[RecordSpan]:
        return self._by_file.get(uri, [])

    def is_exact(self, uri: str) -> bool:
        return self._exact.get(uri, False)

    def prune(
        self, uri: str, seq_nos: list[int],
        bounds: tuple[Optional[int], Optional[int]],
    ) -> list[int]:
        """Drop records that cannot overlap the time bounds.

        A record with span ``[s, e]`` survives iff ``e >= lo and s <= hi``.
        Inexact (estimated) spans are never pruned away — correctness over
        savings.
        """
        lo, hi = bounds
        if lo is None and hi is None:
            return seq_nos
        if not self.is_exact(uri):
            return seq_nos
        spans = {span.seq_no: span for span in self.spans(uri)}
        kept = []
        for seq in seq_nos:
            span = spans.get(seq)
            if span is None:
                kept.append(seq)  # unknown record: do not prune
                continue
            if lo is not None and span.end_time_us < lo:
                continue
            if hi is not None and span.start_time_us > hi:
                continue
            kept.append(seq)
        return kept

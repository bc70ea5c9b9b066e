"""Metadata harvesting: F and R, one row per file and one per record.

The paper loads metadata eagerly because it is "smaller in size and
cheaper to acquire than actual data".  Harvesting header-scans every
record of every file and never touches a payload: F gets one row per
file, R one row per mSEED record with its exact time span, which is
what lets query-time extraction prune down to single records.

Record-level metadata never exists as one Python object per record.  The
adapter harvests a whole batch of files at once (every record header of
the repository decoded in one numpy pass, see :mod:`repro.mseed.files`),
R travels as :class:`RecordColumns` — aligned arrays, one run of rows
per file — into ``bulk_insert``, and the :class:`RecordIndex` keeps each
file's run.  A single-file harvest (a refresh, ``sync()``) is
:meth:`~repro.etl.framework.SourceAdapter.harvest_file`, a batch of one.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.db.column import Column
from repro.errors import MSeedError
from repro.etl.framework import SourceAdapter
from repro.mseed.repository import FileInfo, Repository

logger = logging.getLogger("repro.etl.metadata")


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


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """Canonical record-level metadata (rows of R) as aligned arrays.

    Rows come in one contiguous run per file: ``counts[i]`` rows belong
    to ``uris[i]``.
    """

    uris: tuple[str, ...]
    counts: np.ndarray
    seq_no: np.ndarray
    start_time_us: np.ndarray
    end_time_us: np.ndarray
    frequency: np.ndarray
    sample_count: np.ndarray
    timing_quality: np.ndarray

    @classmethod
    def of_file(cls, uri: str, *, seq_no, start_time_us, end_time_us,
                frequency, sample_count, timing_quality,
                ) -> "RecordColumns":
        """One file's records from equal-length array-likes."""
        columns = dict(seq_no=seq_no, start_time_us=start_time_us,
                       end_time_us=end_time_us, frequency=frequency,
                       sample_count=sample_count,
                       timing_quality=timing_quality)
        return cls(uris=(uri,), counts=np.array([len(seq_no)], dtype=np.int64),
                   **{name: np.asarray(value, dtype=_DTYPES[name])
                      for name, value in columns.items()})

    @classmethod
    def concat(cls, parts: Sequence["RecordColumns"]) -> "RecordColumns":
        return cls(
            uris=tuple(uri for part in parts for uri in part.uris),
            **{name: np.concatenate([getattr(part, name) for part in parts])
               if parts else np.empty(0, dtype=dtype)
               for name, dtype in _DTYPES.items()},
        )

    @classmethod
    def grouped(cls, uris: Column, **columns: np.ndarray,
                ) -> dict[str, "RecordColumns"]:
        """Split rows tagged with a per-row ``uris`` column into one
        :class:`RecordColumns` per file; a file's rows keep their order."""
        if len(uris) == 0:
            return {}
        codes = uris.values
        edges = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
        runs: dict[str, list[slice]] = {}
        for lo, hi in zip([0, *edges], [*edges, len(codes)]):
            runs.setdefault(uris.value_at(lo), []).append(slice(lo, hi))
        return {
            uri: cls.of_file(uri, **{
                name: np.concatenate([column[run] for run in file_runs])
                for name, column in columns.items()})
            for uri, file_runs in runs.items()
        }

    def __len__(self) -> int:
        return len(self.seq_no)

    def file_location(self) -> Column:
        """The per-row uri column."""
        return Column.from_codes(np.repeat(np.arange(len(self.uris)),
                                           self.counts), self.uris)

    def per_file(self) -> Iterator[tuple[str, "RecordColumns"]]:
        """Each file's run, as views."""
        stop = 0
        for uri, count in zip(self.uris, self.counts.tolist()):
            start, stop = stop, stop + count
            yield uri, RecordColumns(
                uris=(uri,), counts=np.array([count], dtype=np.int64),
                **{name: getattr(self, name)[start:stop]
                   for name in _ROW_FIELDS})


_DTYPES = {"counts": np.int64, "seq_no": np.int64, "start_time_us": np.int64,
           "end_time_us": np.int64, "frequency": np.float64,
           "sample_count": np.int64, "timing_quality": np.int64}
_ROW_FIELDS = tuple(_DTYPES)[1:]

NO_RECORDS = RecordColumns.concat([])
"""No rows, no files."""


@dataclass
class HarvestResult:
    """Everything initial loading produced, plus what it cost."""

    files: list[FileMeta] = field(default_factory=list)
    records: RecordColumns = NO_RECORDS
    bytes_read: int = 0
    seconds: float = 0.0
    skipped: list[tuple[str, str]] = field(default_factory=list)


def harvest_repository(
    repo: Repository,
    adapter: SourceAdapter,
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
    result = HarvestResult()
    reads_before = repo.bytes_read
    parts: list[RecordColumns] = []
    for info, outcome in adapter.harvest_files(repo, repo.list_files()):
        if isinstance(outcome, MSeedError):
            if strict:
                raise outcome
            result.skipped.append((info.uri, str(outcome)))
            logger.warning("skipping corrupt file %s: %s", info.uri, outcome)
            continue
        meta, records = outcome
        result.files.append(meta)
        parts.append(records)
    result.records = RecordColumns.concat(parts)
    result.bytes_read = repo.bytes_read - reads_before
    result.seconds = time.perf_counter() - started
    return result


class RecordIndex:
    """In-memory mirror of record metadata, used by lazy extraction.

    The run-time rewrite asks this index two questions: which records of a
    file overlap the query's time bounds, and what a file's full record
    list is.  It keeps each file's :class:`RecordColumns` run, built from
    the initial harvest (or rebuilt from R at a warm start) and
    maintained by :class:`repro.etl.refresh.MetadataSync`.

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
        self._by_file: dict[str, RecordColumns] = {}
        self._versions: dict[str, FileInfo] = {}

    def load(self, result: HarvestResult) -> None:
        self._by_file.update(result.records.per_file())
        for meta in result.files:
            self._versions[meta.uri] = FileInfo(meta.uri, meta.size,
                                                meta.mtime_ns)

    def replace_file(self, info: FileInfo, records: RecordColumns) -> None:
        """Install one file's records, harvested from version ``info``."""
        self._by_file[info.uri] = records
        self._versions[info.uri] = info

    def drop_file(self, uri: str) -> None:
        self._by_file.pop(uri, None)
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

    def records(self, uri: str) -> Optional[RecordColumns]:
        """``uri``'s records, ``None`` for a file the index does not hold."""
        return self._by_file.get(uri)

    def seq_nos(self, uri: str) -> np.ndarray:
        return self._by_file.get(uri, NO_RECORDS).seq_no

    def prune(
        self, uri: str, seq_nos: list[int],
        bounds: tuple[Optional[int], Optional[int]],
    ) -> list[int]:
        """Drop records that cannot overlap the time bounds.

        A record with span ``[s, e]`` survives iff ``e >= lo and s <= hi``.
        """
        lo, hi = bounds
        if lo is None and hi is None:
            return seq_nos
        records = self._by_file.get(uri, NO_RECORDS)
        outside = np.zeros(len(records), dtype=bool)
        if lo is not None:
            outside |= records.end_time_us < lo
        if hi is not None:
            outside |= records.start_time_us > hi
        # A number is unique within a file (a harvest refuses a repeat);
        # one the index does not know is never pruned.
        dropped = set(records.seq_no[outside].tolist())
        return [seq for seq in seq_nos if seq not in dropped]

"""ETL framework abstractions.

The warehouse model follows the paper's normalised schema [12]: a
file-metadata table ``F``, a record-metadata table ``R`` and an
actual-data table ``D``, with ``(file_location)`` and
``(file_location, seq_no)`` as the identifying foreign keys.  A
:class:`SourceAdapter` teaches the ETL strategies how one file format
populates that model; :mod:`repro.etl.mseed_adapter` is the format the
paper demonstrates on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

import numpy as np

from repro.db.column import Column
from repro.db.table import ColumnSpec
from repro.errors import MSeedError
from repro.mseed.repository import FileInfo, Repository

if TYPE_CHECKING:
    from repro.etl.metadata import FileMeta, RecordColumns

#: The SQL schema the warehouse's tables live in (``mseed.files``, ...).
SCHEMA = "mseed"

#: Harvesting one file gives its F row and R rows, or the MSeedError the
#: file raised.
HarvestOutcome = Union[tuple["FileMeta", "RecordColumns"], MSeedError]


@dataclass
class ETLReport:
    """What an ingestion run cost."""

    strategy: str = ""
    seconds: float = 0.0
    files_listed: int = 0
    files_opened: int = 0
    records_loaded: int = 0
    samples_loaded: int = 0
    bytes_read: int = 0


@dataclass
class ExtractedRecords:
    """One file's extracted run, the unit after the harvest: sorted,
    distinct ``seq_nos``; record ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` of every array in ``columns``."""

    uri: str
    seq_nos: np.ndarray
    offsets: np.ndarray
    columns: dict[str, np.ndarray]

    @classmethod
    def of_counts(cls, uri: str, seq_nos, counts,
                  columns: dict[str, np.ndarray]) -> "ExtractedRecords":
        """The run of records in any order, ``counts[i]`` rows each."""
        seq_nos = np.asarray(seq_nos, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        run = cls(uri, seq_nos, offsets, columns)
        return run if (np.diff(seq_nos) > 0).all() else \
            run.take(np.argsort(seq_nos))

    @classmethod
    def of_records(cls, uri: str, seq_nos, records: "list[dict]",
                   names: Sequence[str]) -> "ExtractedRecords":
        """The run of ``names`` over per-record column dicts."""
        return cls.of_counts(
            uri, seq_nos, [len(record[names[0]]) for record in records],
            {name: np.concatenate([record[name] for record in records])
             for name in names})

    @classmethod
    def merge(cls, runs: "list[ExtractedRecords]") -> "ExtractedRecords":
        """One run of the disjoint records of ``runs`` (one file's)."""
        if len(runs) == 1:
            return runs[0]
        return cls.of_counts(
            runs[0].uri, np.concatenate([run.seq_nos for run in runs]),
            np.concatenate([run.counts for run in runs]),
            {name: np.concatenate([run.columns[name] for run in runs])
             for name in runs[0].columns})

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def total_rows(self) -> int:
        return int(self.offsets[-1])

    def take(self, positions: np.ndarray,
             names: Optional[Sequence[str]] = None) -> "ExtractedRecords":
        """The records at ``positions`` over ``names`` (default: all):
        views when contiguous and ascending, else one ``np.take`` each."""
        names = self.columns if names is None else names
        if len(positions) and (np.diff(positions) == 1).all():
            lo, hi = positions[0], positions[-1] + 1
            rows = slice(self.offsets[lo], self.offsets[hi])
            return ExtractedRecords(
                self.uri, self.seq_nos[lo:hi],
                self.offsets[lo:hi + 1] - self.offsets[lo],
                {name: self.columns[name][rows] for name in names})
        starts = self.offsets[positions]
        counts = self.offsets[positions + 1] - starts
        rows = np.arange(counts.sum()) + np.repeat(
            starts - np.cumsum(counts) + counts, counts)
        return ExtractedRecords.of_counts(
            self.uri, self.seq_nos[positions], counts,
            {name: np.take(self.columns[name], rows) for name in names})

    @property
    def per_record(self) -> Iterator[dict[str, np.ndarray]]:
        """Each record's columns as views into the run (read-only)."""
        bounds = self.offsets.tolist()
        return ({name: col[lo:hi] for name, col in self.columns.items()}
                for lo, hi in zip(bounds, bounds[1:]))


def held_positions(sorted_seqs: np.ndarray, seq_nos: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``seq_nos`` the sorted ``sorted_seqs`` holds (a mask over
    ``seq_nos``), and the held ones' positions in ``sorted_seqs``."""
    positions = np.searchsorted(sorted_seqs, seq_nos)
    held = positions < len(sorted_seqs)
    held[held] = sorted_seqs[positions[held]] == seq_nos[held]
    return held, positions[held]


class SourceAdapter(abc.ABC):
    """Format-specific logic plugged into the ETL strategies."""

    # -- schema ------------------------------------------------------------------

    @abc.abstractmethod
    def file_columns(self) -> list[ColumnSpec]:
        """Schema of the file-metadata table (F)."""

    @abc.abstractmethod
    def record_columns(self) -> list[ColumnSpec]:
        """Schema of the record-metadata table (R)."""

    @abc.abstractmethod
    def data_columns(self) -> list[ColumnSpec]:
        """Schema of the actual-data table (D)."""

    # -- metadata harvesting --------------------------------------------------------

    @abc.abstractmethod
    def harvest_files(self, repo: Repository, infos: Sequence[FileInfo],
                      ) -> Iterator[tuple[FileInfo, HarvestOutcome]]:
        """Header-only harvest of a batch of files: ``(info, outcome)``
        per file, in order, one R row per record.  A corrupt file's
        outcome is its error, so it never stops the batch."""

    def harvest_file(self, repo: Repository, info: FileInfo,
                     ) -> tuple["FileMeta", "RecordColumns"]:
        """:meth:`harvest_files` for a batch of one; raises its error."""
        ((_info, outcome),) = self.harvest_files(repo, [info])
        if isinstance(outcome, MSeedError):
            raise outcome
        return outcome

    # -- row shaping ------------------------------------------------------------------

    @abc.abstractmethod
    def file_row(self, meta: "FileMeta") -> dict[str, object]:
        """A row of F for one file."""

    @abc.abstractmethod
    def record_table(self, records: "RecordColumns"
                     ) -> dict[str, "np.ndarray | Column"]:
        """R's columns for a batch of records."""

    # -- actual data -------------------------------------------------------------------

    @abc.abstractmethod
    def extract(self, repo: Repository, uri: str,
                seq_nos: Optional[Sequence[int]],
                needed: Sequence[str]) -> ExtractedRecords:
        """Extract + record-level transform of the given records.

        ``seq_nos=None`` means every record in the file.  ``needed``
        names the D columns to materialise — the engine's column pruning
        reaches all the way down to here.
        """

    @property
    @abc.abstractmethod
    def key_columns(self) -> tuple[str, ...]:
        """D columns joining to R: ``(file_location, seq_no)``."""

    @property
    @abc.abstractmethod
    def range_column(self) -> Optional[str]:
        """The D column usable for record pruning (``sample_time``)."""

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
from dataclasses import dataclass, field
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
    """What an ingestion run cost — the numbers experiment E1 compares."""

    strategy: str = ""
    seconds: float = 0.0
    files_listed: int = 0
    files_opened: int = 0
    records_loaded: int = 0
    samples_loaded: int = 0
    bytes_read: int = 0

    def row(self) -> list[str]:
        from repro.util.human import format_bytes, format_duration

        return [
            self.strategy,
            format_duration(self.seconds),
            str(self.files_listed),
            str(self.files_opened),
            str(self.records_loaded),
            str(self.samples_loaded),
            format_bytes(self.bytes_read),
        ]


@dataclass
class ExtractedRecords:
    """Columnar output of extracting a set of records from one file.

    ``per_record`` aligns with ``seq_nos``: for each record, a dict of
    column name → numpy array of that record's rows.  Keeping per-record
    slices lets the extraction cache admit and reuse single records.
    """

    uri: str
    seq_nos: list[int]
    per_record: list[dict[str, np.ndarray]] = field(default_factory=list)

    def total_rows(self) -> int:
        if not self.per_record:
            return 0
        first_col = next(iter(self.per_record[0]))
        return sum(len(rec[first_col]) for rec in self.per_record)


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

"""External-table / NoDB-style baseline (§2 related work).

Commercial "external tables" expose file data as if it were a table but
"require every query to access the entire dataset, because they are
actually intended for loading a file's content".  This module models that
comparator: a single wide virtual table carrying file metadata, record
metadata and samples side by side, whose binding can only do a full
repository scan — no metadata tables, no extraction cache, no pruning.

A `dataview` view over the wide table (with its alias map widened so the
paper's ``F.``/``R.``/``D.`` qualifiers resolve) lets the exact same SQL
run against all three ingestion strategies.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.db.column import Column
from repro.db.exec.engine import Database
from repro.db.table import ColumnSpec, TableSchema
from repro.etl.framework import SCHEMA, ETLReport, SourceAdapter
from repro.mseed.repository import Repository


class ExternalBinding:
    """A LazyTableBinding that only supports full scans (no keys)."""

    def __init__(self, repo: Repository, adapter: SourceAdapter) -> None:
        self.repo = repo
        self.adapter = adapter
        self.scans = 0

    @property
    def key_columns(self) -> tuple[str, ...]:
        return ()

    @property
    def range_column(self) -> Optional[str]:
        return None

    def fetch(self, keys, needed, time_bounds, trace,
              versions):  # pragma: no cover
        raise NotImplementedError("external tables cannot fetch selectively")

    def scan_all(self, needed: list[str], trace: list[dict],
                 versions: dict) -> dict[str, Column]:
        """Harvest + extract the whole repository, every single query.
        A full scan is never recycled (nothing pins a file added later),
        so there are no ``versions`` to report."""
        self.scans += 1
        started = time.perf_counter()
        data_cols = [
            spec.name for spec in self.adapter.data_columns()
            if spec.name not in self.adapter.key_columns
        ]
        wanted_data = [n for n in needed if n in data_cols]
        chunks: list[dict[str, object]] = []
        total_rows = 0
        for info in self.repo.list_files():
            meta, records = self.adapter.harvest_file(self.repo, info)
            extracted = self.adapter.extract(
                self.repo, info.uri, None, wanted_data or data_cols
            )
            table = {name: column.tolist() for name, column
                     in self.adapter.record_table(records).items()}
            row_of = {seq: i for i, seq in
                      enumerate(table[self.adapter.key_columns[1]])}
            file_row = self.adapter.file_row(meta)
            for seq, columns in zip(extracted.seq_nos, extracted.per_record):
                rows = len(next(iter(columns.values()))) if columns else 0
                record_row = {name: values[row_of[seq]]
                              for name, values in table.items()}
                chunks.append({
                    "file_row": file_row,
                    "record_row": record_row,
                    "seq": seq,
                    "uri": info.uri,
                    "columns": columns,
                    "rows": rows,
                })
                total_rows += rows
        trace.append({
            "op": "external_scan",
            "files": len(self.repo.list_files()),
            "rows": total_rows,
            "seconds": round(time.perf_counter() - started, 4),
        })
        return self._assemble(chunks, needed, total_rows)

    def _assemble(self, chunks: list[dict[str, object]], needed: list[str],
                  total_rows: int) -> dict[str, Column]:
        specs = {spec.name: spec for spec in external_table_columns(self.adapter)}
        out: dict[str, Column] = {}
        for name in needed:
            spec = specs[name]
            if name in ("file_location", "seq_no"):
                values = np.empty(total_rows,
                                  dtype=object if name == "file_location"
                                  else np.int64)
                cursor = 0
                for chunk in chunks:
                    value = chunk["uri"] if name == "file_location" else chunk["seq"]
                    values[cursor:cursor + chunk["rows"]] = value  # type: ignore[index]
                    cursor += chunk["rows"]  # type: ignore[operator]
                out[name] = Column.from_numpy(spec.dtype, values)
                continue
            sample = chunks[0]["columns"] if chunks else {}
            if chunks and name in sample:  # type: ignore[operator]
                values = np.concatenate(
                    [chunk["columns"][name] for chunk in chunks]  # type: ignore[index]
                ) if chunks else np.empty(0)
                out[name] = Column.from_numpy(spec.dtype, values)
                continue
            # A metadata attribute repeated across the record's samples.
            values = np.empty(
                total_rows,
                dtype=object if spec.dtype.name == "VARCHAR" else np.float64,
            )
            cursor = 0
            for chunk in chunks:
                row_source = (
                    chunk["record_row"]
                    if name in chunk["record_row"] else chunk["file_row"]  # type: ignore[operator]
                )
                values[cursor:cursor + chunk["rows"]] = row_source[name]  # type: ignore[index]
                cursor += chunk["rows"]  # type: ignore[operator]
            out[name] = Column.from_values(spec.dtype, list(values)) \
                if spec.dtype.name == "VARCHAR" else \
                Column.from_numpy(spec.dtype, values)
        return out


def external_table_columns(adapter: SourceAdapter) -> list[ColumnSpec]:
    """The wide (universal-table) schema: F ∪ R ∪ D without duplicates.

    Name collisions between file and record metadata (start_time, ...) are
    resolved in favour of the *record*, matching what the dataview exposes.
    """
    out: dict[str, ColumnSpec] = {}
    for spec in adapter.file_columns():
        out[spec.name] = ColumnSpec(spec.name, spec.dtype)
    for spec in adapter.record_columns():
        out[spec.name] = ColumnSpec(spec.name, spec.dtype)
    for spec in adapter.data_columns():
        out[spec.name] = ColumnSpec(spec.name, spec.dtype)
    return list(out.values())


class ExternalTableETL:
    """Set up the external-table warehouse (no loading happens at all)."""

    def __init__(self, db: Database, repo: Repository,
                 adapter: SourceAdapter) -> None:
        self.db = db
        self.repo = repo
        self.adapter = adapter
        self.binding: Optional[ExternalBinding] = None

    @property
    def raw_table(self) -> str:
        return f"{SCHEMA}.raw"

    def create_tables(self) -> None:
        self.db.catalog.create_schema(SCHEMA, if_not_exists=True)
        self.db.catalog.create_table(
            (SCHEMA, "raw"),
            TableSchema(columns=external_table_columns(self.adapter)),
        )

    def initial_load(self) -> ETLReport:
        """Registration only — external tables never load anything."""
        started = time.perf_counter()
        files = self.repo.list_files()
        self.binding = ExternalBinding(self.repo, self.adapter)
        self.db.register_lazy_table(self.raw_table, self.binding)
        return ETLReport(
            strategy="external",
            seconds=time.perf_counter() - started,
            files_listed=len(files),
            files_opened=0,
            records_loaded=0,
            samples_loaded=0,
            bytes_read=0,
        )

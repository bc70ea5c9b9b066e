"""The TableStore: a directory of segment files plus an atomic manifest.

Store layout::

    <root>/
      manifest.json            # schema manifest, committed atomically
      <table>.<gen>.seg        # one segment file per persisted table
      __cache__.<gen>.seg      # extraction-cache snapshot arrays

The manifest records, per table, its qualified name, schema (column
names/types/constraints), row count and segment file, plus free-form
``meta`` keys (e.g. the durable query journal) and the
extraction-cache snapshot directory.  Commits write ``manifest.json.tmp``
then ``os.replace`` it over the manifest — a crash before the rename
leaves the previous manifest fully intact (tested by the crash
simulation in ``tests/test_storage.py``).

Segment files carry a monotone *generation* in their name so an
overwritten table gets a fresh path: buffer-pool keys embed the path,
hence stale pages of the replaced generation can never be served.
Orphaned generations are deleted after a successful commit.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Iterable, Optional

import numpy as np

from repro.db.column import Column
from repro.db.table import ColumnSpec, ForeignKeySpec, Table, TableSchema
from repro.errors import StorageError
from repro.mseed.repository import FileInfo
from repro.storage import format as fmt
from repro.storage.bufferpool import BufferPool
from repro.storage.segment import SegmentReader, SegmentWriter

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
_CACHE_SEGMENT = "__cache__"
_PROMOTED_SEGMENT = "__promoted__"


def _schema_to_json(schema: TableSchema) -> dict:
    return {
        "columns": [
            {"name": c.name, "dtype": fmt.dtype_name(c.dtype),
             "not_null": c.not_null}
            for c in schema.columns
        ],
        "primary_key": list(schema.primary_key),
        "foreign_keys": [
            {"columns": list(fk.columns), "ref_table": fk.ref_table,
             "ref_columns": list(fk.ref_columns)}
            for fk in schema.foreign_keys
        ],
    }


def _schema_from_json(data: dict) -> TableSchema:
    return TableSchema(
        columns=[
            ColumnSpec(name=c["name"],
                       dtype=fmt.dtype_from_name(c["dtype"]),
                       not_null=bool(c.get("not_null", False)))
            for c in data["columns"]
        ],
        primary_key=tuple(data.get("primary_key", ())),
        foreign_keys=[
            ForeignKeySpec(columns=tuple(fk["columns"]),
                           ref_table=fk["ref_table"],
                           ref_columns=tuple(fk["ref_columns"]))
            for fk in data.get("foreign_keys", ())
        ],
    )


class TableBacking:
    """Disk residency of one table: what a lazy scan reads from.

    Opens its segment reader on first use and counts pages so the engine
    can report pages read vs skipped per scan.
    """

    def __init__(self, store: "TableStore", qualified_name: str,
                 segment_file: str, row_count: int) -> None:
        self.store = store
        self.qualified_name = qualified_name
        self.segment_file = segment_file
        self.row_count = row_count
        self._reader: Optional[SegmentReader] = None

    @property
    def reader(self) -> SegmentReader:
        if self._reader is None:
            self._reader = SegmentReader(
                os.path.join(self.store.root, self.segment_file),
                self.store.pool,
            )
        return self._reader

    def load_column(self, name: str) -> Column:
        return self.reader.read_column(name)

    def load_column_pages(self, name: str, pages: list[int],
                          io=None) -> Column:
        return self.reader.read_column_pages(name, pages, io)

    def pages_of(self, name: str) -> int:
        return self.reader.pages_of(name)

    def page_row_counts(self, name: str) -> list[int]:
        return self.reader.page_row_counts(name)

    def zone_map(self, name: str):
        return self.reader.zone_map(name)

    def total_pages(self) -> int:
        return self.reader.total_pages()

    def disk_bytes(self) -> int:
        return self.reader.disk_bytes()

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None


class TableStore:
    """Persist/load catalog tables and extraction-cache snapshots."""

    def __init__(self, root: "str | os.PathLike",
                 *, bufferpool_bytes: int = 64 * 1024 * 1024) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.pool = BufferPool(bufferpool_bytes)
        # Manifest writers can live on different threads (a checkpoint
        # on one thread vs a promotion pass publishing segments):
        # one reentrant lock serialises every manifest mutation + commit,
        # so generations stay unique, json encoding never sees a dict
        # mutating under it, and the orphan sweep can never run between a
        # segment landing on disk and its manifest entry being recorded.
        self._mutate = threading.RLock()
        self._manifest: dict = {
            "version": MANIFEST_VERSION,
            "generation": 0,
            "tables": {},
            "cache": None,
            "promoted": {},
            "meta": {},
        }
        self._load_manifest()

    # -- manifest ---------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _load_manifest(self) -> None:
        if not os.path.exists(self.manifest_path):
            return
        with open(self.manifest_path, "rb") as handle:
            data = json.loads(handle.read().decode("utf-8"))
        if data.get("version") != MANIFEST_VERSION:
            raise StorageError(
                f"unsupported manifest version {data.get('version')!r} "
                f"in {self.manifest_path}"
            )
        self._manifest = data

    def commit(self) -> None:
        """Atomically publish the manifest, then sweep orphan segments."""
        with self._mutate:
            tmp_path = self.manifest_path + ".tmp"
            encoded = json.dumps(self._manifest, sort_keys=True,
                                 indent=1).encode("utf-8")
            with open(tmp_path, "wb") as handle:
                handle.write(encoded)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.manifest_path)
            self._sweep_orphans()

    def _live_segments(self) -> set[str]:
        live = {entry["segment"] for entry in self._manifest["tables"].values()}
        cache = self._manifest.get("cache")
        if cache is not None:
            live.add(cache["segment"])
        live.update(self._manifest.get("promoted", {}))
        return live

    def _sweep_orphans(self) -> None:
        live = self._live_segments()
        for name in os.listdir(self.root):
            if not name.endswith(".seg"):
                continue
            if name not in live:
                try:
                    os.remove(os.path.join(self.root, name))
                except OSError:  # pragma: no cover - best effort
                    pass

    def _next_generation(self) -> int:
        with self._mutate:
            self._manifest["generation"] = \
                int(self._manifest["generation"]) + 1
            return self._manifest["generation"]

    # -- free-form metadata ----------------------------------------------------------

    def set_meta(self, key: str, value) -> None:
        with self._mutate:
            self._manifest["meta"][key] = value

    def get_meta(self, key: str, default=None):
        return self._manifest["meta"].get(key, default)

    # -- query journal spill (sys.queries durability) -------------------------------

    JOURNAL_META_KEY = "query_journal"

    def save_query_journal(self, state: dict, *, commit: bool = True) -> None:
        """Spill a journal snapshot into the manifest meta area.

        Rides the manifest's atomic commit: either the whole history
        snapshot is durable or the previous one survives intact.
        """
        self.set_meta(self.JOURNAL_META_KEY, state)
        if commit:
            self.commit()

    def load_query_journal(self) -> Optional[dict]:
        """The spilled journal snapshot, or ``None`` on a cold store."""
        return self.get_meta(self.JOURNAL_META_KEY)

    # -- segment inventory (sys.segments) -------------------------------------------

    def segments_snapshot(self) -> list[dict]:
        """Every live segment as a row dict: tables, cache, promoted."""
        with self._mutate:
            tables = {name: dict(entry) for name, entry
                      in self._manifest["tables"].items()}
            cache = self._manifest.get("cache")
            cache = None if cache is None else dict(cache)
            promoted = {seg: list(directory) for seg, directory
                        in self._manifest.get("promoted", {}).items()}

        def size_of(segment: str) -> int:
            try:
                return os.path.getsize(os.path.join(self.root, segment))
            except OSError:
                return 0  # swept or never committed

        rows = [
            {"name": name, "kind": "table", "segment": entry["segment"],
             "rows": int(entry["row_count"]),
             "bytes": size_of(entry["segment"])}
            for name, entry in sorted(tables.items())
        ]
        if cache is not None:
            rows.append({"name": _CACHE_SEGMENT, "kind": "cache",
                         "segment": cache["segment"],
                         "rows": len(cache.get("entries", ())),
                         "bytes": size_of(cache["segment"])})
        for segment, directory in sorted(promoted.items()):
            rows.append({"name": _PROMOTED_SEGMENT, "kind": "promoted",
                         "segment": segment, "rows": len(directory),
                         "bytes": size_of(segment)})
        return rows

    # -- tables -----------------------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(self._manifest["tables"])

    def has_table(self, qualified_name: str) -> bool:
        return qualified_name in self._manifest["tables"]

    def schema_of(self, qualified_name: str) -> TableSchema:
        entry = self._entry(qualified_name)
        return _schema_from_json(entry["schema"])

    def row_count_of(self, qualified_name: str) -> int:
        return int(self._entry(qualified_name)["row_count"])

    def _entry(self, qualified_name: str) -> dict:
        try:
            return self._manifest["tables"][qualified_name]
        except KeyError:
            raise StorageError(
                f"store has no table {qualified_name!r}"
            ) from None

    def save_table(self, qualified_name: str, table: Table,
                   *, commit: bool = True) -> str:
        """Write one table's columns as a fresh segment generation."""
        with self._mutate:
            generation = self._next_generation()
            segment_file = f"{qualified_name}.{generation:08d}.seg"
            writer = SegmentWriter(os.path.join(self.root, segment_file))
            columns, row_count = table.snapshot_columns()
            try:
                for spec in table.schema.columns:
                    writer.write_column(spec.name, columns[spec.name])
                writer.finish()
            except BaseException:
                writer.abort()
                raise
            self._manifest["tables"][qualified_name] = {
                "segment": segment_file,
                "schema": _schema_to_json(table.schema),
                "row_count": row_count,
            }
            if commit:
                self.commit()
            return segment_file

    def drop_table(self, qualified_name: str, *, commit: bool = True) -> None:
        with self._mutate:
            self._manifest["tables"].pop(qualified_name, None)
            if commit:
                self.commit()

    def backing_for(self, qualified_name: str) -> TableBacking:
        entry = self._entry(qualified_name)
        return TableBacking(self, qualified_name, entry["segment"],
                            int(entry["row_count"]))

    def table_disk_bytes(self, qualified_name: str) -> int:
        entry = self._entry(qualified_name)
        return os.path.getsize(os.path.join(self.root, entry["segment"]))

    def disk_bytes(self) -> int:
        return sum(self.table_disk_bytes(name) for name in self.table_names())

    # -- per-unit segments (cache snapshots + promoted units) -----------------------

    def _write_entry_segment(
        self,
        prefix: str,
        entries: Iterable[tuple[str, int, FileInfo, dict[str, np.ndarray]]],
    ) -> tuple[Optional[str], list[dict]]:
        """Write one segment of per-unit arrays; shared by cache
        snapshots and promoted segments so the two encodings can never
        drift apart.

        ``entries`` yields ``(uri, seq_no, info, columns)``; each
        column array becomes one slot named ``<index>/<column>``,
        written as a single page — a unit read always wants the whole
        array, never a page subset.  Of the version ``info`` only the
        mtime is persisted (the manifest shape predates the ledger):
        readers pair it with the files table's version on reopen.
        Returns ``(segment file, directory)``; an empty input aborts the
        writer and returns ``(None, [])``.  Callers hold ``_mutate``.
        """
        generation = self._next_generation()
        segment_file = f"{prefix}.{generation:08d}.seg"
        writer = SegmentWriter(os.path.join(self.root, segment_file),
                               uniform=False)
        directory: list[dict] = []
        try:
            for count, (uri, seq_no, info, columns) in enumerate(entries):
                slot_columns = {}
                rows = 0
                for name, values in columns.items():
                    slot = f"{count}/{name}"
                    values = np.asarray(values)
                    rows = len(values)
                    writer.write_column(
                        slot,
                        Column.from_numpy(fmt.dtype_of_array(values), values),
                        page_rows=max(len(values), 1),
                    )
                    slot_columns[name] = slot
                directory.append({"uri": uri, "seq_no": seq_no,
                                  "mtime_ns": info.mtime_ns,
                                  "columns": slot_columns, "rows": rows})
            if not directory:
                writer.abort()
                return None, []
            writer.finish()
        except BaseException:
            writer.abort()
            raise
        return segment_file, directory

    # -- extraction-cache snapshots ----------------------------------------------

    def has_cache_snapshot(self) -> bool:
        return self._manifest.get("cache") is not None

    def save_cache_snapshot(
        self,
        entries: Iterable[tuple[str, int, FileInfo, dict[str, np.ndarray]]],
        *, commit: bool = True,
    ) -> int:
        """Persist extraction-cache entries.

        ``entries`` yields ``(uri, seq_no, info, columns)``; array
        payloads go into one segment (reusing the page codecs — sample
        data compresses like any other int64 column), entry keys into
        the manifest.
        """
        with self._mutate:
            segment_file, directory = self._write_entry_segment(
                _CACHE_SEGMENT, entries)
            if segment_file is None:
                self._manifest["cache"] = None
            else:
                self._manifest["cache"] = {
                    "segment": segment_file,
                    "entries": directory,
                }
            if commit:
                self.commit()
            return len(directory)

    def load_cache_snapshot(
        self,
    ) -> list[tuple[str, int, int, dict[str, np.ndarray]]]:
        """Read back the snapshot written by :meth:`save_cache_snapshot`
        as ``(uri, seq_no, persisted mtime_ns, columns)`` rows.

        Stores checkpointed before the eviction policy became a constant
        carry a ``"cost"`` key per entry; it is ignored.
        """
        snapshot = self._manifest.get("cache")
        if snapshot is None:
            return []
        reader = SegmentReader(
            os.path.join(self.root, snapshot["segment"]), self.pool
        )
        try:
            out = []
            for entry in snapshot["entries"]:
                columns = {
                    name: reader.read_column(slot).values
                    for name, slot in entry["columns"].items()
                }
                out.append((
                    entry["uri"], int(entry["seq_no"]),
                    int(entry["mtime_ns"]), columns,
                ))
            return out
        finally:
            reader.close()

    # -- promoted segments (adaptive lazy→eager promotion) -------------------------

    def promoted_segments(self) -> dict[str, list[dict]]:
        """Manifest directory of promoted segments: file -> unit entries."""
        return self._manifest.get("promoted", {})

    def save_promoted_segment(
        self,
        entries: Iterable[tuple[str, int, FileInfo, dict[str, np.ndarray]]],
        *, commit: bool = True,
    ) -> tuple[str, list[dict]]:
        """Persist one batch of promoted units as an immutable segment.

        ``entries`` yields ``(uri, seq_no, info, columns)``; the
        transformed arrays reuse the table page codecs, the unit
        directory lands in the manifest's ``promoted`` area.  Returns
        the segment file name and its directory entries.
        """
        with self._mutate:
            segment_file, directory = self._write_entry_segment(
                _PROMOTED_SEGMENT, entries)
            if segment_file is None:
                raise StorageError("empty promoted batch")
            self._manifest.setdefault("promoted", {})[segment_file] = \
                directory
            if commit:
                self.commit()
            return segment_file, directory

    def drop_promoted_segment(self, segment_file: str,
                              *, commit: bool = True) -> None:
        """Demote one promoted segment (the commit sweep deletes it)."""
        with self._mutate:
            self._manifest.get("promoted", {}).pop(segment_file, None)
            if commit:
                self.commit()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TableStore({self.root}, tables={len(self.table_names())}, "
                f"cache={'yes' if self.has_cache_snapshot() else 'no'})")

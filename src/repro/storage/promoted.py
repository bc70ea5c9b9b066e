"""Promoted segments: eagerly materialized extraction units on disk.

Promotion writes records the extraction cache holds (and queries keep
hitting) *once* into segment files (the same page codecs the table store
uses) and serves them from there afterwards — a disk-backed scan through
the buffer pool, like :class:`~repro.db.plan.physical.PDiskScan`,
instead of re-running extraction and transformation against the source
file.  :meth:`SeismicWarehouse.promote()
<repro.seismology.warehouse.SeismicWarehouse.promote>` runs the pass.

:class:`PromotedStore` owns the unit index and the read/write path:

* **promote** — :meth:`promote_batch` writes one immutable segment
  holding the transformed columns of a batch of ``(uri, seq_no)`` units
  and registers them in the store manifest (area ``promoted``), so they
  survive restarts exactly like checkpointed tables;
* **serve** — :meth:`fetch` returns a unit's columns if the segment
  covers the needed column set *and* the unit was promoted under the
  :class:`~repro.mseed.repository.FileInfo` the query is running under
  (a guard — whether a file is stale is decided once, by
  :meth:`repro.etl.lazy.LazyDataBinding.observe`);
* **reclaim** — :meth:`drop_segment` removes a whole segment once a
  rewrite or a re-promotion has left it no live unit (segments are
  immutable, so space is reclaimed by dropping files, never rewritten).

Thread safety: queries ``fetch`` concurrently from service workers while
a promotion pass mutates the index; the internal lock covers the index,
and segment files themselves are immutable once published.  Manifest
commits are serialised by :attr:`mutate_lock`, which a promotion pass
holds throughout.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import StorageError
from repro.mseed.repository import FileInfo
from repro.storage.segment import IOCounter, SegmentReader
from repro.storage.store import TableStore


@dataclass
class PromotedUnit:
    """Index entry: where one promoted unit's columns live."""

    uri: str
    seq_no: int
    info: FileInfo                 # source-file version at promotion
    segment: str                   # segment file name inside the store
    columns: dict[str, str]        # column name -> segment slot name
    rows: int


@dataclass
class PromotedStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    stale_drops: int = 0
    promoted_units: int = 0


@dataclass
class PromotionReport:
    """What one promotion pass did."""

    candidates: int = 0      # resident records that qualified
    promoted_units: int = 0
    skipped_files: int = 0   # stale or vanished files left to queries
    seconds: float = 0.0
    disk_bytes: int = 0      # promoted-store footprint after the pass


class PromotedStore:
    """Index + I/O for promoted segments inside one :class:`TableStore`."""

    def __init__(self, store: TableStore,
                 version_of: Callable[[str], Optional[FileInfo]]) -> None:
        """``version_of`` is the warehouse's ledger
        (:meth:`repro.etl.metadata.RecordIndex.version`): the manifest
        persists only each unit's mtime, the ledger supplies the rest."""
        self.store = store
        self._units: dict[tuple[str, int], PromotedUnit] = {}
        self._segments: dict[str, list[tuple[str, int]]] = {}
        # Per-file view: which seq_nos are promoted.
        self._by_uri: dict[str, set[int]] = {}
        self._readers: dict[str, SegmentReader] = {}
        self._lock = threading.RLock()
        # Serialises whole promotion passes (manifest commits are not
        # safe to interleave from two of them).
        self.mutate_lock = threading.Lock()
        self.stats = PromotedStats()
        self._load_index(version_of)

    def _load_index(self, version_of) -> None:
        """Mount the manifest's units, skipping those promoted from
        bytes the metadata no longer describes (invalidation is
        in-memory, so a checkpoint taken after a rewrite still lists
        them; the next promotion pass reclaims their segments)."""
        for segment, entries in self.store.promoted_segments().items():
            keys = self._segments[segment] = []
            for entry in entries:
                info = version_of(entry["uri"])
                if info is not None \
                        and info.mtime_ns == int(entry["mtime_ns"]):
                    keys.append(self._mount_locked(entry, info, segment))

    def _mount_locked(self, entry: dict, info: FileInfo,
                      segment: str) -> tuple[str, int]:
        """Index one manifest directory entry; a unit already mounted
        from an older segment (re-promotion) yields to this copy."""
        unit = PromotedUnit(
            uri=entry["uri"], seq_no=int(entry["seq_no"]),
            info=info, segment=segment,
            columns=dict(entry["columns"]), rows=int(entry["rows"]),
        )
        key = (unit.uri, unit.seq_no)
        self._drop_unit_locked(key)
        self._units[key] = unit
        self._by_uri.setdefault(unit.uri, set()).add(unit.seq_no)
        return key

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._units)

    def __contains__(self, key: tuple[str, int]) -> bool:
        with self._lock:
            return key in self._units

    def unit(self, uri: str, seq_no: int) -> Optional[PromotedUnit]:
        with self._lock:
            return self._units.get((uri, seq_no))

    def unit_keys(self) -> set[tuple[str, int]]:
        with self._lock:
            return set(self._units)

    def disk_bytes(self) -> int:
        """On-disk footprint of every live promoted segment."""
        with self._lock:
            segments = list(self._segments)
        total = 0
        for segment in segments:
            try:
                total += os.path.getsize(os.path.join(self.store.root,
                                                      segment))
            except OSError:
                pass
        return total

    # -- serving -----------------------------------------------------------------

    def fetch(self, uri: str, seq_no: int, needed: Iterable[str],
              info: FileInfo
              ) -> Optional[tuple[dict[str, np.ndarray], int]]:
        """Serve one unit's columns from its promoted segment.

        Returns ``(columns, pages_read)`` or ``None`` when the unit is
        not promoted, does not cover ``needed``, or was promoted under a
        version other than ``info``, the one the query runs under (the
        unit is dropped from the index so the lazy path re-extracts, and
        the next promotion pass reclaims the segment if nothing live
        remains in it).
        """
        needed = list(needed)
        with self._lock:
            self.stats.lookups += 1
            unit = self._units.get((uri, seq_no))
            if unit is None or any(col not in unit.columns for col in needed):
                self.stats.misses += 1
                return None
            if unit.info != info:
                self._drop_unit_locked((uri, seq_no))
                self.stats.stale_drops += 1
                self.stats.misses += 1
                return None
            reader = self._reader_locked(unit.segment)
        io = IOCounter()  # private tally: the pool counters are shared
        try:
            columns = {col: reader.read_column(unit.columns[col],
                                               io=io).values
                       for col in needed}
        except (StorageError, ValueError, OSError):
            # The segment vanished under us (a concurrent pass swept the
            # file or closed the reader's mmap): behave like a miss, the
            # lazy path still works.
            with self._lock:
                self._drop_unit_locked((uri, seq_no))
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return columns, io.disk_reads

    def file_has_units(self, uri: str) -> bool:
        """Whether any unit of this file is promoted — the query path's
        per-file short-circuit, so files with nothing promoted pay one
        lock round-trip instead of one per record."""
        with self._lock:
            return uri in self._by_uri

    def invalidate_file(self, uri: str) -> int:
        """Stop serving every unit of a changed file (in-memory only;
        the next promotion pass garbage-collects emptied segments)."""
        with self._lock:
            doomed = [(uri, seq) for seq in self._by_uri.get(uri, ())]
            for key in doomed:
                self._drop_unit_locked(key)
            self.stats.stale_drops += len(doomed)
            return len(doomed)

    def _drop_unit_locked(self, key: tuple[str, int]) -> None:
        unit = self._units.pop(key, None)
        if unit is None:
            return
        keys = self._segments.get(unit.segment)
        if keys is not None:
            try:
                keys.remove(key)
            except ValueError:
                pass
        seqs = self._by_uri.get(key[0])
        if seqs is not None:
            seqs.discard(key[1])
            if not seqs:
                del self._by_uri[key[0]]

    def _reader_locked(self, segment: str) -> SegmentReader:
        reader = self._readers.get(segment)
        if reader is None:
            reader = SegmentReader(
                os.path.join(self.store.root, segment), self.store.pool
            )
            self._readers[segment] = reader
        return reader

    # -- promotion / reclamation ---------------------------------------------------

    def promote_batch(
        self,
        entries: list[tuple[str, int, FileInfo, dict[str, np.ndarray]]],
        *, commit: bool = True,
    ) -> Optional[str]:
        """Write one segment of ``(uri, seq_no, info, columns)`` units.

        Already-promoted units are re-promoted in the new segment (the
        fresh entry wins in the index; the old segment's copy is dead
        weight until every unit of that segment has moved on and a pass
        reclaims it).  Returns the segment file name, or ``None`` for an
        empty batch.
        """
        entries = [e for e in entries if e[3]]
        if not entries:
            return None
        segment, directory = self.store.save_promoted_segment(
            entries, commit=commit)
        with self._lock:
            keys = [
                self._mount_locked(entry, info, segment)
                for (_uri, _seq, info, _cols), entry in zip(entries,
                                                            directory)
            ]
            self._segments[segment] = keys
            self.stats.promoted_units += len(keys)
        return segment

    def drop_segment(self, segment: str, *, commit: bool = True) -> int:
        """Drop one whole segment; returns the number of live units it
        still carried."""
        with self._lock:
            keys = self._segments.pop(segment, [])
            for key in list(keys):
                self._drop_unit_locked(key)
            reader = self._readers.pop(segment, None)
        if reader is not None:
            reader.close()
        self.store.drop_promoted_segment(segment, commit=commit)
        return len(keys)

    def drop_empty_segments(self) -> None:
        """Drop, in one manifest commit, every segment whose units have
        all been invalidated or re-promoted."""
        with self._lock:
            empties = [seg for seg, keys in self._segments.items()
                       if not keys]
        for segment in empties:
            self.drop_segment(segment, commit=False)
        if empties:
            self.store.commit()

    def close(self) -> None:
        with self._lock:
            readers, self._readers = list(self._readers.values()), {}
        for reader in readers:
            reader.close()

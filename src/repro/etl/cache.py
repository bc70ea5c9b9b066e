"""The extraction cache — lazy loading per §3.3.

"Materialization of the extracted and transformed data is simply caching"
— this module is that cache, and its unit is the **file**: one entry per
``uri`` holds one file version's extracted run
(:class:`~repro.etl.framework.ExtractedRecords`), the ``FileInfo`` it was
extracted from and a per-record ``hits`` count.  :meth:`~ExtractionCache.get`
serves a file's wanted records in one call and names those the entry
lacks; :meth:`~ExtractionCache.put` of the extracted rest makes the entry
the sorted union.  Every record of an entry carries the same columns.
Eviction is LRU over files (the paper's choice) within a byte budget
("not larger than the size of the system's main memory"); the counters
count records.

Staleness is decided once, by
:meth:`repro.etl.lazy.LazyDataBinding.observe`; the version stored here
is a guard: :meth:`~ExtractionCache.validate_file` drops an entry
admitted under another ``FileInfo`` (a racing session's late
admission), and :meth:`~ExtractionCache.restore` skips snapshot records
whose mtime disagrees with the restarted warehouse's metadata.

Concurrency: all public methods are thread-safe.  Per-URI **stripe
locks** serialise per-file sequences (validate → refresh → extract →
admit); one **structural lock**, always taken after a stripe lock,
guards the LRU map and byte counter.  An entry **protected** by an
in-flight coalesced extraction is never evicted; if every entry is
protected the cache overcommits, like pinned buffer-pool pages, until
protection drops.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import CacheInvariantError, ETLError
from repro.etl.framework import ExtractedRecords, held_positions
from repro.mseed.repository import FileInfo

logger = logging.getLogger("repro.etl.cache")

STRIPE_COUNT = 16
"""Number of per-URI lock stripes (power of two, keeps hashing cheap)."""


@dataclass
class CacheEntry:
    """One file version's run; ``hits[i]`` counts the lookups that
    served record ``run.seq_nos[i]`` (what promotion ranks by)."""

    info: FileInfo  # the file version the run was extracted from
    run: ExtractedRecords
    hits: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        run = self.run
        return [run.seq_nos, run.offsets, self.hits, *run.columns.values()]

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.arrays())


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    admissions: int = 0
    evictions: int = 0
    stale_drops: int = 0
    widenings: int = 0  # entries whose column set grew
    restored: int = 0  # records re-admitted from a storage snapshot
    spills: int = 0  # records persisted to a storage snapshot

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _owned(array: np.ndarray) -> np.ndarray:
    """A copy unless ``array`` owns its memory (eviction frees it all)."""
    return array if array.base is None else array.copy()


class ExtractionCache:
    """Bounded file-grain cache of extracted, transformed actual data."""

    def __init__(self, budget_bytes: int = 256 * 1024 * 1024) -> None:
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._bytes = 0
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._stripes = [threading.RLock() for _ in range(STRIPE_COUNT)]
        # In-flight markers: uri -> protection refcount.
        self._protected: dict[str, int] = {}

    # -- locking -----------------------------------------------------------------

    def file_lock(self, uri: str) -> threading.RLock:
        """The stripe lock that serialises a multi-step per-file sequence
        (validate → refresh → extract → admit) across sessions."""
        return self._stripes[hash(uri) % STRIPE_COUNT]

    # -- in-flight markers -------------------------------------------------------

    def protect(self, uri: str) -> None:
        """Exempt a file's entry from eviction while in flight (refcounted)."""
        with self._lock:
            self._protected[uri] = self._protected.get(uri, 0) + 1

    def unprotect(self, uri: str) -> None:
        with self._lock:
            count = self._protected.get(uri)
            if count is None:
                raise ETLError(f"unprotect of unprotected entry {uri!r}")
            if count <= 1:
                del self._protected[uri]
            else:
                self._protected[uri] = count - 1
            self._evict_to_budget()

    # -- staleness ---------------------------------------------------------------

    def validate_file(self, uri: str, info: FileInfo) -> bool:
        """Guard: drop the file's entry if it was admitted under a
        version other than ``info``.  ``True`` when it (if any) is valid.
        """
        with self.file_lock(uri), self._lock:
            entry = self._entries.get(uri)
            if entry is None or entry.info == info:
                return True
            self.invalidate_file(uri)
            return False

    def invalidate_file(self, uri: str) -> int:
        """Drop the entry of a changed or removed file; returns the
        number of records it held."""
        with self.file_lock(uri), self._lock:
            entry = self._entries.pop(uri, None)
            if entry is None:
                return 0
            self._bytes -= entry.nbytes
            self.stats.stale_drops += len(entry.run.seq_nos)
            return len(entry.run.seq_nos)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- lookup / admission ------------------------------------------------------------

    def held(self, uri: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The columns and (sorted) records of the file's entry."""
        with self._lock:
            entry = self._entries.get(uri)
            if entry is None:
                return (), np.empty(0, np.int64)
            return tuple(entry.run.columns), entry.run.seq_nos

    def get(self, uri: str, wanted: np.ndarray, needed: Sequence[str]
            ) -> tuple[Optional[ExtractedRecords], np.ndarray]:
        """One file's ``wanted`` records (sorted, distinct) over
        ``needed``: the served run (a slice of the entry when contiguous,
        else one ``np.take``; ``None`` if empty) and the seq_nos lacked."""
        with self._lock:
            self.stats.lookups += len(wanted)
            entry = self._entries.get(uri)
            if entry is None or not set(needed) <= set(entry.run.columns):
                self.stats.misses += len(wanted)
                return None, wanted
            held, positions = held_positions(entry.run.seq_nos, wanted)
            self.stats.hits += len(positions)
            self.stats.misses += len(wanted) - len(positions)
            if not len(positions):
                return None, wanted
            entry.hits[positions] += 1
            self._entries.move_to_end(uri)
        return entry.run.take(positions, needed), wanted[~held]

    def put(self, uri: str, info: FileInfo, run: ExtractedRecords) -> bool:
        """Admit one file's extracted run: under the entry's version and
        columns the entry becomes the sorted union of its records and the
        run's; a run with more columns (the caller re-took the entry's
        records) or under another ``FileInfo`` replaces it.  A run lacking
        one of the entry's columns, or an entry over the whole budget, is
        rejected and the *cached entry stays intact*."""
        with self.file_lock(uri), self._lock:
            old = self._entries.get(uri)
            same = old is not None and old.info == info
            if same and not set(old.run.columns) <= set(run.columns):
                return False
            widened = same and len(run.columns) > len(old.run.columns)
            admitted = len(run.seq_nos)
            if same and not widened:
                others = ~held_positions(run.seq_nos, old.run.seq_nos)[0]
                run = ExtractedRecords.merge(
                    [old.run.take(np.flatnonzero(others)), run])
            entry = CacheEntry(info, ExtractedRecords(
                uri, _owned(run.seq_nos), _owned(run.offsets),
                {name: _owned(col) for name, col in run.columns.items()}),
                np.zeros(len(run.seq_nos), dtype=np.int64))
            if same:  # carry the hit counts of the records it keeps
                kept, positions = held_positions(run.seq_nos, old.run.seq_nos)
                entry.hits[positions] = old.hits[kept]
            if entry.nbytes > self.budget_bytes:
                return False
            if old is not None:
                del self._entries[uri]
                self._bytes -= old.nbytes
                if not same:
                    self.stats.stale_drops += len(old.run.seq_nos)
            self.stats.widenings += widened
            self._entries[uri] = entry
            self._bytes += entry.nbytes
            self.stats.admissions += admitted
            self._evict_to_budget()
            return True

    def _evict_to_budget(self) -> None:
        while self._bytes > self.budget_bytes:
            victim = next((uri for uri in self._entries
                           if uri not in self._protected), None)
            if victim is None:
                # Everything left is protected by an in-flight extraction:
                # overcommit temporarily, like pinned buffer-pool pages.
                return
            entry = self._entries.pop(victim)
            self._bytes -= entry.nbytes
            self.stats.evictions += len(entry.run.seq_nos)

    # -- consistency --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.CacheInvariantError` unless the
        byte counter sums the entries' arrays, the budget holds (or
        protection forces an overcommit) and every entry is one
        rectangular run of its file whose arrays own their memory."""
        with self._lock:
            actual = sum(entry.nbytes for entry in self._entries.values())
            if actual != self._bytes:
                raise CacheInvariantError(
                    f"byte counter {self._bytes} != sum of entries {actual}")
            evictable = [uri for uri in self._entries
                         if uri not in self._protected]
            if self._bytes > self.budget_bytes and evictable:
                raise CacheInvariantError(
                    f"over budget ({self._bytes} > {self.budget_bytes}) "
                    f"with {len(evictable)} evictable entries")
            for uri, entry in self._entries.items():
                run = entry.run
                if not (run.uri == entry.info.uri == uri
                        and len(run.offsets) == len(run.seq_nos) + 1
                        and run.offsets[0] == 0
                        and (np.diff(run.offsets) >= 0).all()
                        and (np.diff(run.seq_nos) > 0).all()
                        and len(entry.hits) == len(run.seq_nos)
                        and all(len(col) == run.offsets[-1]
                                for col in run.columns.values())
                        and all(a.base is None for a in entry.arrays())):
                    raise CacheInvariantError(
                        f"entry of {uri!r} is not one rectangular run")

    # -- introspection (demo capability 7) ------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        """The number of cached records."""
        with self._lock:
            return sum(len(entry.run.seq_nos)
                       for entry in self._entries.values())

    def resident(self) -> list[tuple[str, int, FileInfo,
                                    dict[str, np.ndarray], int]]:
        """``(uri, seq_no, info, columns, hits)`` per cached record, the
        columns as views into the file's run, least recently used file
        first: what :meth:`spill` persists and what promotion ranks."""
        with self._lock:
            entries = [(uri, entry.info, entry.run, entry.hits.tolist())
                       for uri, entry in self._entries.items()]
        return [
            (uri, seq_no, info, columns, hits)
            for uri, info, run, file_hits in entries
            for seq_no, columns, hits in zip(run.seq_nos.tolist(),
                                             run.per_record, file_hits)
        ]

    def contents(self) -> list[tuple[str, int, int, int]]:
        """(uri, records, bytes, hits) per file, in eviction order;
        ``hits`` sums the file's records."""
        with self._lock:
            return [(uri, len(entry.run.seq_nos), entry.nbytes,
                     int(entry.hits.sum()))
                    for uri, entry in self._entries.items()]

    # -- persistence (storage-engine warm starts) -----------------------------------

    def spill(self, store, *, skip=None) -> int:
        """Persist the cache into ``store`` (a ``TableStore`` or a path),
        one row per record in eviction order, leaving out the records
        ``skip(uri, seq_no, info, columns)`` accepts (those a promoted
        segment persists).  Returns the number of records written."""
        store = _as_store(store)
        entries = [entry[:4] for entry in self.resident()
                   if skip is None or not skip(*entry[:4])]
        written = store.save_cache_snapshot(entries)
        with self._lock:
            self.stats.spills += written
        logger.info("spilled %d cache entries to %s", written, store.root)
        return written

    def restore(self, store,
                version_of: Callable[[str], Optional[FileInfo]]) -> int:
        """Admit :meth:`spill`'s snapshot as one run per file, skipping
        records whose mtime is not the ledger's (``version_of``); a run
        keeps the columns all its records carry.  Returns the records
        restored."""
        per_file: dict[str, list] = {}
        for uri, seq_no, mtime_ns, columns in \
                _as_store(store).load_cache_snapshot():
            info = version_of(uri)
            if info is not None and info.mtime_ns == mtime_ns:
                per_file.setdefault(uri, []).append((seq_no, columns))
        restored = 0
        for uri, records in per_file.items():
            seqs, parts = zip(*records)
            names = sorted(set.intersection(*map(set, parts)))
            if names and self.put(uri, version_of(uri), ExtractedRecords.
                                  of_records(uri, seqs, parts, names)):
                restored += len(seqs)
        # Restores are bookkeeping, not workload: ``admissions`` counts
        # what queries extracted, ``restored`` what a warm start brought.
        with self._lock:
            self.stats.admissions -= restored
            self.stats.restored += restored
        return restored

    def snapshot(self) -> dict:
        """Counters and occupancy as plain data (metrics collectors);
        ``entries`` and ``protected`` count files, the rest records."""
        with self._lock:
            return {**asdict(self.stats), "entries": len(self._entries),
                    "used_bytes": self._bytes,
                    "budget_bytes": self.budget_bytes,
                    "protected": len(self._protected)}

    def render(self, max_rows: int = 20) -> str:
        contents = self.contents()
        lines = [f"extraction cache: {len(contents)} files, "
                 f"{self._bytes} / {self.budget_bytes} bytes"]
        lines += [f"  {uri} records={records} bytes={nbytes} hits={hits}"
                  for uri, records, nbytes, hits in contents[:max_rows]]
        if len(contents) > max_rows:
            lines.append(f"  ... {len(contents) - max_rows} more files")
        return "\n".join(lines)


def _as_store(store):
    """Accept a TableStore or a directory path (lazy import: storage
    depends on the db layer, never the reverse of this module)."""
    from repro.storage.store import TableStore

    if isinstance(store, TableStore):
        return store
    return TableStore(store)

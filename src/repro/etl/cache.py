"""The extraction cache — lazy loading per §3.3.

"Materialization of the extracted and transformed data is simply caching"
— this module is that cache.  Entries live at **record grain**
``(uri, seq_no)`` so overlapping queries reuse each other's extractions
partially; each entry stores the transformed columns of one record plus
the :class:`~repro.mseed.repository.FileInfo` (size + mtime) the file had
when the record was extracted.

Eviction is LRU, the paper's stated choice.  The byte budget models "not
larger than the size of the system's main memory".

Staleness (lazy refresh) is decided elsewhere — by the one observation in
:meth:`repro.etl.lazy.LazyDataBinding.observe`, against the version the
file's *metadata* was harvested from.  The version stored here is only a
guard: :meth:`ExtractionCache.validate_file` drops a file's entries when
they were admitted under a different ``FileInfo`` than the one the query
is running under (a racing session's late admission), and
:meth:`ExtractionCache.restore` skips snapshot entries whose persisted
mtime disagrees with the restarted warehouse's metadata.

Concurrency: the cache is shared by every session of a
:class:`~repro.service.service.WarehouseService`, so all public methods
are thread-safe.  Two locking layers cooperate:

* a set of **stripe locks**, one per hash bucket of URIs, serialise the
  multi-step per-file sequences (validate → refresh → extract → admit)
  so two sessions never interleave staleness handling for one file;
* a single **structural lock** guards the shared LRU map, byte counter
  and per-URI index for the short critical sections that mutate them.

Stripe locks are always acquired before the structural lock and eviction
only ever takes the structural lock, so the order is acyclic.  Entries
can be **protected** (in-flight markers) while a coalesced extraction's
waiters still need them; protected entries are never evicted — if every
entry is protected the cache temporarily overcommits, exactly like the
buffer pool's pinned pages, and trims back as soon as protection drops.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import CacheInvariantError, ETLError
from repro.mseed.repository import FileInfo

logger = logging.getLogger("repro.etl.cache")

STRIPE_COUNT = 16
"""Number of per-URI lock stripes (power of two, keeps hashing cheap)."""


@dataclass
class CacheEntry:
    columns: dict[str, np.ndarray]
    info: FileInfo  # the file version the record was extracted from
    nbytes: int
    hits: int = 0


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    admissions: int = 0
    evictions: int = 0
    stale_drops: int = 0
    widenings: int = 0
    restored: int = 0  # entries re-admitted from a storage snapshot
    spills: int = 0  # entries persisted to a storage snapshot

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ExtractionCache:
    """Bounded record-grain cache of extracted, transformed actual data."""

    def __init__(self, budget_bytes: int = 256 * 1024 * 1024) -> None:
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[tuple[str, int], CacheEntry]" = OrderedDict()
        # Per file, the version its entries were last admitted under
        # (validate_file's O(1) guard).
        self._file_version: dict[str, FileInfo] = {}
        # Per-URI seq_no index so staleness drops and introspection are
        # O(entries of that file), not O(all entries).
        self._by_uri: dict[str, set[int]] = {}
        self._bytes = 0
        self.stats = CacheStats()
        # Concurrency: stripe locks serialise per-file sequences, the
        # structural lock guards the shared maps (see module docstring).
        self._lock = threading.RLock()
        self._stripes = [threading.RLock() for _ in range(STRIPE_COUNT)]
        # In-flight markers: (uri, seq) -> protection refcount.  Protected
        # entries are exempt from eviction.
        self._protected: dict[tuple[str, int], int] = {}

    # -- locking -----------------------------------------------------------------

    def _stripe_for(self, uri: str) -> threading.RLock:
        return self._stripes[hash(uri) % STRIPE_COUNT]

    @contextmanager
    def file_lock(self, uri: str) -> Iterator[None]:
        """Serialise a multi-step per-file sequence (validate → refresh →
        extract → admit) against other sessions touching the same stripe."""
        with self._stripe_for(uri):
            yield

    # -- in-flight markers -------------------------------------------------------

    def protect(self, uri: str, seq_no: int) -> None:
        """Exempt an entry from eviction while a coalesced flight's
        waiters may still need it (refcounted)."""
        key = (uri, seq_no)
        with self._lock:
            self._protected[key] = self._protected.get(key, 0) + 1

    def unprotect(self, uri: str, seq_no: int) -> None:
        key = (uri, seq_no)
        with self._lock:
            count = self._protected.get(key)
            if count is None:
                raise ETLError(f"unprotect of unprotected entry {key}")
            if count <= 1:
                del self._protected[key]
            else:
                self._protected[key] = count - 1
            self._evict_to_budget()

    def protected_count(self) -> int:
        with self._lock:
            return len(self._protected)

    # -- staleness ---------------------------------------------------------------

    def validate_file(self, uri: str, info: FileInfo) -> bool:
        """Guard: drop the file's entries if they were admitted under a
        version other than ``info``.

        Returns ``True`` when cached entries (if any) are still valid.
        """
        with self._stripe_for(uri), self._lock:
            known = self._file_version.get(uri)
            if known is None or known == info:
                return True
            self._invalidate_file_locked(uri)
            return False

    def invalidate_file(self, uri: str) -> int:
        """Drop every entry of a changed or removed file."""
        with self._stripe_for(uri), self._lock:
            return self._invalidate_file_locked(uri)

    def _invalidate_file_locked(self, uri: str) -> int:
        doomed = self._by_uri.pop(uri, None) or set()
        for seq_no in doomed:
            entry = self._entries.pop((uri, seq_no))
            self._bytes -= entry.nbytes
        self._file_version.pop(uri, None)
        self.stats.stale_drops += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._file_version.clear()
            self._by_uri.clear()
            self._bytes = 0

    # -- lookup / admission ------------------------------------------------------------

    def get(self, uri: str, seq_no: int,
            needed: list[str]) -> Optional[dict[str, np.ndarray]]:
        """Return the record's columns if all ``needed`` ones are cached."""
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get((uri, seq_no))
            if entry is None or any(col not in entry.columns for col in needed):
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            entry.hits += 1
            self._entries.move_to_end((uri, seq_no))
            return {col: entry.columns[col] for col in needed}

    def put(self, uri: str, seq_no: int, info: FileInfo,
            columns: dict[str, np.ndarray]) -> bool:
        """Admit (or widen) one record's transformed columns.

        Widening merges the new columns over the cached ones.  If the
        widened entry would exceed the whole budget, the admission is
        rejected and the *previously cached entry stays intact* — an
        over-budget widening must not lose columns that were already paid
        for.
        """
        key = (uri, seq_no)
        with self._stripe_for(uri), self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                merged = dict(existing.columns)
                merged.update(columns)
                columns = merged
            nbytes = sum(arr.nbytes for arr in columns.values())
            if nbytes > self.budget_bytes:
                return False
            if existing is not None:
                self._bytes -= existing.nbytes
                self.stats.widenings += 1
                del self._entries[key]
            self._entries[key] = CacheEntry(
                columns=columns, info=info, nbytes=nbytes,
            )
            self._file_version[uri] = info
            self._by_uri.setdefault(uri, set()).add(seq_no)
            self._bytes += nbytes
            self.stats.admissions += 1
            self._evict_to_budget()
            return True

    def _evict_to_budget(self) -> None:
        while self._bytes > self.budget_bytes and self._entries:
            victim = self._pick_victim()
            if victim is None:
                # Everything left is protected by an in-flight extraction:
                # overcommit temporarily, like pinned buffer-pool pages.
                return
            entry = self._entries.pop(victim)
            self._drop_from_uri_index(victim)
            self._bytes -= entry.nbytes
            self.stats.evictions += 1

    def _drop_from_uri_index(self, key: tuple[str, int]) -> None:
        uri, seq_no = key
        seqs = self._by_uri.get(uri)
        if seqs is not None:
            seqs.discard(seq_no)
            if not seqs:
                del self._by_uri[uri]

    def _pick_victim(self) -> Optional[tuple[str, int]]:
        """Least recently used entry that no in-flight extraction protects."""
        for key in self._entries:
            if key not in self._protected:
                return key
        return None

    # -- consistency --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert internal bookkeeping consistency (stress-test hook).

        Verifies, atomically under the structural lock:

        * the byte counter equals the sum of entry sizes;
        * total bytes fit the budget unless in-flight protection forces
          an overcommit;
        * the per-URI index and the entry map describe the same key set;
        * every indexed URI has an admission version.

        Raises :class:`~repro.errors.CacheInvariantError` on violation.
        """
        with self._lock:
            actual = sum(entry.nbytes for entry in self._entries.values())
            if actual != self._bytes:
                raise CacheInvariantError(
                    f"byte counter {self._bytes} != sum of entries {actual}"
                )
            if self._bytes > self.budget_bytes:
                unprotected = [k for k in self._entries
                               if k not in self._protected]
                if unprotected:
                    raise CacheInvariantError(
                        f"over budget ({self._bytes} > {self.budget_bytes}) "
                        f"with {len(unprotected)} evictable entries"
                    )
            indexed = {
                (uri, seq) for uri, seqs in self._by_uri.items()
                for seq in seqs
            }
            present = set(self._entries)
            if indexed != present:
                missing = present - indexed
                stale = indexed - present
                raise CacheInvariantError(
                    f"uri index out of sync: missing={sorted(missing)[:4]} "
                    f"stale={sorted(stale)[:4]}"
                )
            for uri in self._by_uri:
                if uri not in self._file_version:
                    raise CacheInvariantError(
                        f"indexed file {uri!r} has no admission version"
                    )

    # -- introspection (demo capability 7) ------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._entries

    def cached_seq_nos(self, uri: str) -> list[int]:
        with self._lock:
            return sorted(self._by_uri.get(uri, ()))

    def resident(self) -> list[tuple[str, int, FileInfo,
                                    dict[str, np.ndarray], int]]:
        """One locked copy of ``(uri, seq_no, info, columns, hits)`` per
        entry, least recently used first: what :meth:`spill` persists
        and what promotion ranks."""
        with self._lock:
            return [
                (uri, seq_no, entry.info, dict(entry.columns), entry.hits)
                for (uri, seq_no), entry in self._entries.items()
            ]

    def contents(self) -> list[tuple[str, int, int, int]]:
        """(uri, seq_no, bytes, hits) per entry, in eviction order."""
        with self._lock:
            return [
                (uri, seq, entry.nbytes, entry.hits)
                for (uri, seq), entry in self._entries.items()
            ]

    # -- persistence (storage-engine warm starts) -----------------------------------

    def spill(self, store, *, skip=None) -> int:
        """Persist the cache into a table store's snapshot area.

        ``store`` is a :class:`~repro.storage.store.TableStore` or a
        directory path.  ``skip`` is an optional predicate
        ``(uri, seq_no, info, columns) -> bool``; entries it accepts
        are left out of the snapshot (the lazy warehouse skips entries
        already covered by a promoted segment — persisting the hot set
        twice would only cost checkpoint time and dead cache budget on
        restore).  Entries are written in eviction order, so a restore
        replays admissions in the same order and reproduces the LRU
        state.  Returns the number of entries written.
        """
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
        """Warm-start from a snapshot written by :meth:`spill`.

        The snapshot persists only each entry's mtime; ``version_of``
        (the restarted warehouse's ledger,
        :meth:`repro.etl.metadata.RecordIndex.version`) supplies the full
        version.  Entries whose stored mtime disagrees with it were
        extracted from bytes the metadata no longer describes and are
        skipped.  The byte budget still applies.
        """
        store = _as_store(store)
        restored = 0
        for uri, seq_no, mtime_ns, columns in store.load_cache_snapshot():
            info = version_of(uri)
            if info is None or info.mtime_ns != mtime_ns:
                continue
            if self.put(uri, seq_no, info, columns):
                restored += 1
        # Restores are bookkeeping, not workload: ``admissions`` counts
        # what queries extracted, ``restored`` what a warm start brought.
        with self._lock:
            self.stats.admissions -= restored
            self.stats.restored += restored
        return restored

    def snapshot(self) -> dict:
        """Counters and occupancy as plain data (metrics collectors)."""
        with self._lock:
            return {
                "lookups": self.stats.lookups,
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "admissions": self.stats.admissions,
                "evictions": self.stats.evictions,
                "stale_drops": self.stats.stale_drops,
                "widenings": self.stats.widenings,
                "restored": self.stats.restored,
                "spills": self.stats.spills,
                "entries": len(self._entries),
                "used_bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "protected": len(self._protected),
            }

    def render(self, max_rows: int = 20) -> str:
        lines = [
            f"extraction cache: {len(self)} entries, "
            f"{self._bytes} / {self.budget_bytes} bytes"
        ]
        for uri, seq, nbytes, hits in self.contents()[:max_rows]:
            lines.append(f"  {uri} seq={seq} bytes={nbytes} hits={hits}")
        if len(self) > max_rows:
            lines.append(f"  ... {len(self) - max_rows} more entries")
        return "\n".join(lines)


def _as_store(store):
    """Accept a TableStore or a directory path (lazy import: storage
    depends on the db layer, never the reverse of this module)."""
    from repro.storage.store import TableStore

    if isinstance(store, TableStore):
        return store
    return TableStore(store)

"""Lazy ETL: metadata-only initial loading + query-time extraction.

:class:`LazyETL` performs the paper's initial loading — only metadata goes
into the warehouse, the actual-data table stays **virtual** — and registers
a :class:`LazyDataBinding` with the engine.  At query time the engine's
run-time rewriting operator calls :meth:`LazyDataBinding.fetch`, which
plays §3.1-§3.3 out in order:

1. *identify* — deduplicate the (file, record) pairs the metadata plan
   selected and prune records outside the query's time bounds using the
   record index;
2. *refresh check* — per file, :meth:`LazyDataBinding.observe`: ``stat``
   it and compare the ``FileInfo`` (size + mtime) with the version its
   metadata was harvested from; on mismatch drop what was derived from
   the old bytes and re-harvest (§3.3's lazy refresh).  A same-size,
   same-mtime rewrite is invisible — the limit of any stat-based check;
3. *cache fetch or extract* — per file, one cache lookup (the best case:
   "no ETL process needs to be performed"), promoted segments for what
   it lacks, one decode pass and the record-level transforms for the rest;
4. *load* — admit the file's extracted run to the bounded LRU cache,
   whose entry for the file becomes the union of its records.

Every step appends to the run-time ``trace``, which is what the demo GUI
panels (4)-(7) display.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Optional

import numpy as np

from repro.db.catalog import LazyRows
from repro.db.column import Column
from repro.db.exec.engine import Database
from repro.db.table import TableSchema, ForeignKeySpec
from repro.errors import (
    ExtractionError,
    MSeedError,
    RepositoryError,
    StorageError,
)
from repro.etl.cache import ExtractionCache
from repro.etl.framework import (
    SCHEMA,
    ETLReport,
    ExtractedRecords,
    SourceAdapter,
    held_positions,
)
from repro.etl.metadata import (
    NO_RECORDS,
    FileMeta,
    HarvestResult,
    RecordColumns,
    RecordIndex,
    harvest_repository,
)
from repro.etl.refresh import install
from repro.mseed.repository import FileInfo, Repository
from repro.storage.promoted import PromotionReport

logger = logging.getLogger("repro.etl.lazy")


class LazyDataBinding:
    """The engine-facing half of lazy extraction (a LazyTableBinding).

    Freshness is one decision, made here: ``index`` is also the ledger
    of the version each file's metadata was harvested from, and
    :meth:`observe` (stat → compare with the ledger → react) is the only
    place staleness is detected, whoever looks first — a query,
    ``promote()`` or ``sync()``.  The reaction calls ``metadata_refresh``
    with the file's new ``FileInfo``: the hook re-harvests that file so
    the record index (and the F/R tables) match the new layout before
    extraction proceeds — "refreshments are handled ... when the data
    warehouse is queried" (§3).

    Concurrency hooks, ``None`` in single-process use: ``coalescer``
    (installed by :class:`~repro.service.service.WarehouseService`)
    makes concurrent sessions extract the same records once, and
    ``extract_pool`` (``SeismicWarehouse.ensure_sharding``) fans one
    query's per-file work out across the shard workers.

    Per-file staleness handling is serialised through the cache's stripe
    locks, and metadata refreshes additionally through a global refresh
    lock: one file's swap (:func:`~repro.etl.refresh.install`) at a time —
    updates to the repository under live traffic are the rare event,
    queries are the common one.
    """

    def __init__(self, repo: Repository, adapter: SourceAdapter,
                 index: RecordIndex, cache: ExtractionCache,
                 metadata_refresh) -> None:
        self.repo = repo
        self.adapter = adapter
        self.index = index
        self.cache = cache
        self.metadata_refresh = metadata_refresh
        # When storage is attached, the PromotedStore consulted for what
        # the extraction cache lacks; None keeps the pure-lazy behaviour.
        self.promoted = None
        self._data_specs = {spec.name: spec for spec in adapter.data_columns()}
        # When a query needs no data column at all (e.g. COUNT(*)), one is
        # still extracted so row multiplicity is exact.
        self._count_column = next(
            name for name in self._data_specs
            if name not in adapter.key_columns
        )
        # Concurrency hooks (see class docstring).
        self.coalescer = None
        self.extract_pool = None
        # Sharded execution hook: when set (by SeismicWarehouse.
        # ensure_sharding), raw extraction is routed to the shard worker
        # that owns the file instead of decoding in this process.  Same
        # signature/return as ``adapter.extract`` minus the repo handle;
        # everything around it — cache admission, staleness, coalescing,
        # tracing — still runs here, unchanged.
        self.remote_extractor = None
        self.wait_timeout_s = 30.0
        self.refresh_lock = threading.RLock()
        # Observability hook: an ExtractionInstruments bundle (installed
        # by the warehouse); None keeps the hot path free of metric work.
        self.metrics = None

    # -- LazyTableBinding protocol ------------------------------------------------

    @property
    def key_columns(self) -> tuple[str, ...]:
        return self.adapter.key_columns

    @property
    def range_column(self) -> Optional[str]:
        return self.adapter.range_column

    def fetch(
        self,
        keys: dict[str, Column],
        needed: list[str],
        time_bounds: tuple[Optional[int], Optional[int]],
        trace: list[dict],
        versions: dict,
    ) -> LazyRows:
        """Extract/transform/load exactly the rows the metadata selected,
        served pair by pair (see :class:`~repro.db.catalog.LazyRows`)."""
        uri_key, seq_key = self.key_columns
        uri_codes, seq_nos = keys[uri_key], keys[seq_key]
        seqs = seq_nos.values.astype(np.int64)
        # A row whose key is NULL (or a seq_no no record can carry) names
        # nothing; the code under a NULL uri is never read.
        named = uri_codes.validity() & seq_nos.validity() & (seqs == seq_nos.values)
        # The distinct (uri code, seq_no) pairs, sorted: files in uri
        # order (codes follow string order), each file's records in order.
        pairs, inverse = np.unique(
            np.stack([uri_codes.values[named].astype(np.int64), seqs[named]]),
            axis=1, return_inverse=True)
        pair_of_row = np.full(len(named), -1, dtype=np.int64)
        pair_of_row[named] = inverse.reshape(-1)
        # Each file's slice [lo, hi) of the pairs.
        bounds = [0, *(np.flatnonzero(pairs[0, 1:] != pairs[0, :-1]) + 1)
                  .tolist(), pairs.shape[1]]
        files = [(uri_codes.uniques[pairs[0, lo]], lo, hi)
                 for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

        data_cols = [n for n in needed if n not in self.key_columns]
        # Each file gets a private trace list, merged back in file order,
        # so the trace (and the assembled output) stay deterministic when
        # a pool fans this query's per-file work out.
        local_traces: list[list[dict]] = [[] for _ in files]

        def fetch_file(index: int) -> ExtractedRecords:
            uri, lo, hi = files[index]
            return self._fetch_file(uri, pairs[1][lo:hi], data_cols,
                                    time_bounds, local_traces[index], versions)

        try:
            if self.extract_pool is not None and len(files) > 1:
                runs = self.extract_pool.map_ordered(fetch_file,
                                                     range(len(files)))
            else:
                runs = [fetch_file(index) for index in range(len(files))]
        finally:
            for local in local_traces:
                trace.extend(local)
        # A pruned or vanished record serves no rows.
        run_lengths = np.zeros(pairs.shape[1], dtype=np.int64)
        for (_uri, lo, hi), run in zip(files, runs):
            if len(run.seq_nos):
                run_lengths[lo + np.searchsorted(pairs[1][lo:hi],
                                                 run.seq_nos)] = run.counts
        return LazyRows(
            self._assemble([run for run in runs if len(run.seq_nos)],
                           needed, data_cols),
            pair_of_row, run_lengths)

    def scan_all(self, needed: list[str], trace: list[dict],
                 versions: dict) -> dict[str, Column]:
        """§3.1 worst case: the required subset is the entire repository."""
        data_cols = [n for n in needed if n not in self.key_columns]
        runs = [self._fetch_file(uri, np.sort(self.index.seq_nos(uri)),
                                 data_cols, (None, None), trace, versions)
                for uri in self.index.files()]
        return self._assemble(runs, needed, data_cols)

    # -- internals --------------------------------------------------------------------

    def observe(self, uri: str, trace: list[dict]) -> FileInfo:
        """The one observation: stat the file once, compare the whole
        ``FileInfo`` with the ledger, and on mismatch record a
        ``refresh`` op in ``trace`` and run :meth:`handle_stale_file`.

        Returns the version everything served from the file by this
        query is tagged with.  The file's stripe lock serialises the
        sequence, so two sessions never race the drop-and-refresh.
        """
        with self.cache.file_lock(uri):
            info = self.repo.stat(uri)
            if not self.index.matches(info):
                trace.append({"op": "refresh", "file": uri,
                              "reason": "file changed since its metadata "
                                        "was harvested"})
                self.handle_stale_file(info)
            # Guard, not a second decision: a session that extracted
            # across a refresh may since have admitted old-version entries.
            self.cache.validate_file(uri, info)
        return info

    def is_current(self, info: FileInfo) -> bool:
        """Whether state derived under an earlier observation may still
        be used: ``info`` is still the ledger's version and the file (if
        it has not vanished) still stats to it.  Never reacts — the
        next :meth:`observe` does."""
        try:
            return (self.index.matches(info)
                    and self.index.matches(self.repo.stat(info.uri)))
        except (RepositoryError, OSError):
            return False

    def handle_stale_file(self, info: FileInfo) -> None:
        """The one reaction to an observed rewrite: drop what was derived
        from the old bytes, re-harvest at ``info`` (ledger := ``info``).

        Callers hold the file's stripe lock; metadata-table DML is
        additionally globally serialised through the refresh lock.
        """
        logger.info("stale file %s: dropping cache/promoted state and "
                    "re-harvesting metadata", info.uri)
        self.drop_derived_state(info.uri)
        with self.refresh_lock:
            self.metadata_refresh(info)

    def drop_derived_state(self, uri: str) -> None:
        """Forget what was derived from a changed or removed file: cache
        entries and promoted units both carry per-record state of the
        *old* layout."""
        if self.metrics is not None:
            self.metrics.stale_files_total.inc()
        self.cache.invalidate_file(uri)
        if self.promoted is not None:
            self.promoted.invalidate_file(uri)

    def _fetch_file(
        self, uri: str, seq_nos: np.ndarray, data_cols: list[str],
        time_bounds: tuple[Optional[int], Optional[int]],
        trace: list[dict], versions: dict,
    ) -> ExtractedRecords:
        """The file's run of ``seq_nos`` (sorted, distinct) over
        ``data_cols``, without the records pruned or gone."""
        data_cols = data_cols or [self._count_column]
        runs = []
        # (1) metadata-driven pruning of records outside the time window.
        kept = np.asarray(self.index.prune(uri, seq_nos.tolist(),
                                           time_bounds), dtype=np.int64)
        if len(kept) < len(seq_nos):
            trace.append({"op": "prune", "file": uri,
                          "dropped_records": len(seq_nos) - len(kept)})
        # (2) staleness: the one observation.  A refresh — ours just now,
        # or another session's after OUR metadata sub-plan selected keys
        # — may have replaced the record layout: the live index is the
        # authority on what still exists.
        if len(kept):
            info = self.observe(uri, trace)
            kept = self._only_live_records(uri, kept, trace)
        if not len(kept):
            return _no_records(uri, data_cols)
        versions[info] = self

        # (3) the cache's one lookup, then promoted segments (disk pages
        # through the buffer pool) for what it lacks, then the source
        # file.  ``mtime_ns`` in trace entries is for display only.
        cached, missing = self.cache.get(uri, kept, data_cols)
        if cached is not None:
            runs.append(cached)
            trace.append({"op": "cache_fetch", "file": uri,
                          "records": len(cached.seq_nos),
                          "mtime_ns": info.mtime_ns})
        if len(missing) and self.promoted is not None \
                and self.promoted.file_has_units(uri):
            missing = self._promoted_fetch(uri, missing, data_cols, info,
                                           trace, runs)
        if len(missing):
            try:
                runs.append(self._extract_missing(uri, missing, data_cols,
                                                  info, trace))
            except ExtractionError:
                # A refresh landed between the liveness check and the
                # extraction (concurrent sessions): retry once against
                # the refreshed index; re-raise if nothing changed.
                remaining = self._only_live_records(uri, missing, trace)
                if len(remaining) == len(missing):
                    raise
                if len(remaining):
                    info = self.observe(uri, trace)
                    versions[info] = self
                    runs.append(self._extract_missing(
                        uri, remaining, data_cols, info, trace))
        return ExtractedRecords.merge(runs or [_no_records(uri, data_cols)])

    def _only_live_records(self, uri: str, seq_nos: np.ndarray,
                           trace: list[dict]) -> np.ndarray:
        """Drop records the (possibly concurrently refreshed) index no
        longer lists."""
        kept = seq_nos[held_positions(np.sort(self.index.seq_nos(uri)),
                                      seq_nos)[0]]
        if len(kept) < len(seq_nos):
            trace.append({"op": "refresh", "file": uri,
                          "records_gone": len(seq_nos) - len(kept)})
        return kept

    def _promoted_fetch(self, uri: str, missing: np.ndarray,
                        data_cols: list[str], info: FileInfo,
                        trace: list[dict],
                        runs: list[ExtractedRecords]) -> np.ndarray:
        """Append to ``runs`` the run of what promoted segments hold of
        ``missing`` (one unit per record); returns the seq_nos still
        missing."""
        served, units, lacking, pages = [], [], [], 0
        for seq in missing.tolist():
            got = self.promoted.fetch(uri, seq, data_cols, info)
            if got is None:
                lacking.append(seq)
                continue
            served.append(seq)
            units.append(got[0])
            pages += got[1]
        if served:
            runs.append(ExtractedRecords.of_records(uri, served, units,
                                                    data_cols))
            trace.append({"op": "promoted_fetch", "file": uri,
                          "records": len(served),
                          "rows": runs[-1].total_rows(),
                          "pages_read": pages, "mtime_ns": info.mtime_ns})
        return np.asarray(lacking, dtype=np.int64)

    def _extract_missing(
        self, uri: str, missing: np.ndarray, data_cols: list[str],
        info: FileInfo, trace: list[dict],
    ) -> ExtractedRecords:
        """The run of ``missing`` over ``data_cols``, extracted here or
        coalesced with other sessions."""
        runs = ([self._extract_direct(uri, missing, data_cols, info, trace)]
                if self.coalescer is None else
                self._extract_coalesced(uri, missing, data_cols, info, trace))
        return ExtractedRecords.merge(
            [run.take(held_positions(run.seq_nos, missing)[1], data_cols)
             for run in runs])

    def _extract_direct(
        self, uri: str, missing: np.ndarray, data_cols: list[str],
        info: FileInfo, trace: list[dict], *, protect: bool = False,
    ) -> ExtractedRecords:
        """Extract ``missing`` records here, admit the run, return it.

        The one decode pass takes the file entry's columns plus
        ``data_cols`` (so the entry stays rectangular), and the entry's
        records too when that widens it.  ``protect=True`` keeps the
        entry from eviction until the coalesced caller unprotects it.
        """
        held, held_seqs = self.cache.held(uri)
        columns = [*held, *(name for name in data_cols if name not in held)]
        if held and len(columns) > len(held):
            # Only records the index still lists: a concurrent refresh
            # may be dropping the entry.
            missing = np.union1d(
                missing, self._only_live_records(uri, held_seqs, []))
        started = time.perf_counter()
        if self.remote_extractor is not None:
            extracted = self.remote_extractor(uri, missing.tolist(), columns)
        else:
            extracted = self.adapter.extract(self.repo, uri,
                                             missing.tolist(), columns)
        elapsed = time.perf_counter() - started
        trace.append({
            "op": "extract", "file": uri, "records": len(missing),
            "rows": extracted.total_rows(),
            "seconds": round(elapsed, 4),
            "seq_lo": int(missing[0]), "seq_hi": int(missing[-1]),
            "mtime_ns": info.mtime_ns,
        })
        if self.metrics is not None:
            self.metrics.extract_seconds.observe(elapsed)
            self.metrics.extract_records_total.inc(len(missing))
            self.metrics.extract_rows_total.inc(extracted.total_rows())
        # (4) lazy loading: admit the transformed run to the cache.
        if protect:
            self.cache.protect(uri)
        self.cache.put(uri, info, extracted)
        return extracted

    def _extract_coalesced(
        self, uri: str, missing: np.ndarray, data_cols: list[str],
        info: FileInfo, trace: list[dict],
    ) -> list[ExtractedRecords]:
        """Single-flight extraction: lead what we claimed, wait for the rest.

        Leading happens before waiting, so a session never blocks on
        another flight while holding unpublished claims — the no-deadlock
        argument in :mod:`repro.service.coalescer`.
        """
        outcome = self.coalescer.claim(uri, missing.tolist(), data_cols, info)
        runs: list[ExtractedRecords] = []
        if outcome.led_seqs:
            try:
                led = self._extract_direct(
                    uri, np.asarray(outcome.led_seqs, dtype=np.int64),
                    data_cols, info, trace, protect=True)
            except BaseException as exc:
                self.coalescer.publish(uri, outcome.flight, None, error=exc)
                raise
            try:
                self.coalescer.publish(uri, outcome.flight, led)
            finally:
                self.cache.unprotect(uri)
            runs.append(led)
        for flight, seqs in outcome.waits.items():
            started = time.perf_counter()
            got = self.coalescer.wait(flight, seqs, self.wait_timeout_s)
            waited = time.perf_counter() - started
            if self.metrics is not None:
                self.metrics.coalesce_wait_seconds.observe(waited)
            if got is None:
                # The flight failed, timed out or covered fewer records
                # than we need: extract those records ourselves.
                logger.debug("coalesce fallback on %s: flight covered "
                             "%d records short", uri, len(seqs))
                trace.append({"op": "coalesce_fallback", "file": uri,
                              "records": len(seqs)})
                runs.append(self._extract_direct(
                    uri, np.asarray(seqs, dtype=np.int64), data_cols,
                    info, trace))
                continue
            trace.append({
                "op": "extract_wait", "file": uri,
                "records": len(got.seq_nos), "rows": got.total_rows(),
                "seconds": round(waited, 4), "seq_lo": int(got.seq_nos[0]),
                "seq_hi": int(got.seq_nos[-1]), "mtime_ns": info.mtime_ns,
            })
            runs.append(got)
        return runs

    def _assemble(self, runs: list[ExtractedRecords], needed: list[str],
                  data_cols: list[str]) -> dict[str, Column]:
        """D's columns from one run per file, in file order."""
        uri_key, seq_key = self.key_columns
        out: dict[str, Column] = {}
        if uri_key in needed:
            out[uri_key] = Column.from_codes(
                np.repeat(np.arange(len(runs)),
                          [run.total_rows() for run in runs]),
                [run.uri for run in runs])
        if seq_key in needed:
            out[seq_key] = Column.from_numpy(
                self._data_specs[seq_key].dtype, np.concatenate(
                    [_NO_ROWS] + [np.repeat(run.seq_nos, run.counts)
                                  for run in runs]))
        for name in data_cols:
            spec = self._data_specs.get(name)
            if spec is None:
                raise ExtractionError(f"unknown data column {name!r}")
            out[name] = Column.from_numpy(spec.dtype, np.concatenate(
                [_NO_ROWS] + [run.columns[name] for run in runs]))
        return out


_NO_ROWS = np.empty(0, dtype=np.int64)


def _no_records(uri: str, names: list[str]) -> ExtractedRecords:
    return ExtractedRecords(uri, _NO_ROWS, np.zeros(1, dtype=np.int64),
                            {name: _NO_ROWS for name in names})


class LazyETL:
    """Metadata-only initial loading for a warehouse over a repository."""

    def __init__(
        self,
        db: Database,
        repo: Repository,
        adapter: SourceAdapter,
        *,
        cache_budget_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        self.db = db
        self.repo = repo
        self.adapter = adapter
        self.cache = ExtractionCache(cache_budget_bytes)
        self.index = RecordIndex()
        self.binding: Optional[LazyDataBinding] = None

    @property
    def files_table(self) -> str:
        return f"{SCHEMA}.files"

    @property
    def records_table(self) -> str:
        return f"{SCHEMA}.records"

    @property
    def data_table(self) -> str:
        return f"{SCHEMA}.data"

    def create_tables(self) -> None:
        """Create the three-table warehouse schema (F, R, virtual D)."""
        catalog = self.db.catalog
        catalog.create_schema(SCHEMA, if_not_exists=True)
        catalog.create_table(
            (SCHEMA, "files"),
            TableSchema(columns=self.adapter.file_columns(),
                        primary_key=("file_location",)),
        )
        catalog.create_table(
            (SCHEMA, "records"),
            TableSchema(
                columns=self.adapter.record_columns(),
                primary_key=("file_location", "seq_no"),
                foreign_keys=[
                    ForeignKeySpec(
                        columns=("file_location",),
                        ref_table=self.files_table,
                        ref_columns=("file_location",),
                    )
                ],
            ),
        )
        catalog.create_table(
            (SCHEMA, "data"),
            TableSchema(
                columns=self.adapter.data_columns(),
                foreign_keys=[
                    ForeignKeySpec(
                        columns=("file_location", "seq_no"),
                        ref_table=self.records_table,
                        ref_columns=("file_location", "seq_no"),
                    )
                ],
            ),
        )

    def warm_start(self, store) -> ETLReport:
        """Restart from a checkpoint instead of re-harvesting.

        The persisted F/R tables are *attached* (disk-backed, columns
        fault in lazily) and the record index (with its version ledger,
        from F's ``file_size``/``mtime_ns``) is rebuilt from their rows —
        metadata, cheap by the paper's own argument.  The extraction
        cache restores from its snapshot, so queries that re-visit
        checkpointed records are pure cache hits: zero re-extraction.
        """
        started = time.perf_counter()
        # A store written when R could hold one estimated whole-file row
        # per file: treating those spans as exact would prune real records.
        granularity = store.get_meta("granularity", "record")
        if granularity != "record":
            raise StorageError(
                f"checkpoint holds {granularity!r}-level metadata; only "
                f"one R row per record is supported — delete the store "
                f"to re-harvest")
        self.create_tables()
        self.db.attach(store)
        self._rebuild_index_from_metadata()
        self.cache.restore(store, self.index.version)
        self.binding = LazyDataBinding(self.repo, self.adapter, self.index,
                                       self.cache,
                                       metadata_refresh=self.refresh_file_metadata)
        self.db.register_lazy_table(self.data_table, self.binding)
        files_table = self.db.catalog.table((SCHEMA, "files"))
        records_table = self.db.catalog.table((SCHEMA, "records"))
        return ETLReport(
            strategy="lazy+warm",
            seconds=time.perf_counter() - started,
            files_listed=files_table.row_count,
            files_opened=0,
            records_loaded=records_table.row_count,
            samples_loaded=0,
            bytes_read=0,
        )

    def checkpoint(self, store) -> int:
        """Persist metadata tables + extraction cache for warm restarts."""
        if self.db.catalog.store is None:
            self.db.attach(store)
        store = self.db.catalog.store
        self.db.checkpoint()
        return self.cache.spill(store, skip=self._covered_by_promotion)

    def _covered_by_promotion(self, uri: str, seq_no: int, info: FileInfo,
                              columns: dict) -> bool:
        """True when a promoted segment already persists this cache
        entry (current generation, at least the same columns) — spilling
        it again would store the hot set twice and restore dead weight."""
        promoted = None if self.binding is None else self.binding.promoted
        if promoted is None:
            return False
        unit = promoted.unit(uri, seq_no)
        return (unit is not None and self.index.matches(unit.info)
                and set(columns) <= set(unit.columns))

    def promote(self, min_score: float, max_units: int) -> PromotionReport:
        """One synchronous promotion pass over the extraction cache.

        The cache is the one record of what queries touched: its LRU
        order and each record's ``hits``.  Records with at least
        ``min_score`` hits that no promoted unit covers yet are ranked by
        most hits, then most recently used, capped at ``max_units`` and
        written as one segment.  Per file, one
        :meth:`LazyDataBinding.observe` decides freshness (a rewrite
        first seen here runs the one stale reaction); an entry extracted
        from any other version is skipped.  A unit's promoted columns are
        read back and kept, so a re-promotion never narrows it.  The pass
        extracts nothing.
        """
        started = time.perf_counter()
        binding = self.binding
        promoted = binding.promoted
        report = PromotionReport()
        with promoted.mutate_lock:
            promoted.drop_empty_segments()
            # Most recently used first; the stable sort keeps that order
            # among records with as many hits.
            ranked = sorted(
                (entry for entry in reversed(self.cache.resident())
                 if entry[4] >= min_score
                 and not self._covered_by_promotion(*entry[:4])),
                key=lambda entry: -entry[4])[:max_units]
            report.candidates = len(ranked)
            per_file: dict[str, list] = {}
            for entry in ranked:
                per_file.setdefault(entry[0], []).append(entry)
            batch = []
            for uri in sorted(per_file):
                with self.cache.file_lock(uri):
                    try:
                        current = binding.observe(uri, [])
                    except (OSError, RepositoryError, ExtractionError,
                            MSeedError):
                        current = None  # vanished or torn: left to queries
                    # A file's records share the version of its one run.
                    if per_file[uri][0][2] != current:
                        report.skipped_files += 1
                        continue
                    batch.extend(
                        (uri, seq_no, current,
                         self._promoted_union(uri, seq_no, current, columns))
                        for _uri, seq_no, _info, columns, _hits
                        in per_file[uri])
            promoted.promote_batch(batch)
            report.promoted_units = len(batch)
            report.disk_bytes = promoted.disk_bytes()
        report.seconds = time.perf_counter() - started
        return report

    def _promoted_union(self, uri: str, seq_no: int, info: FileInfo,
                        columns: dict) -> dict:
        """``columns`` plus whatever the record's promoted unit already
        holds beyond them, read from its segment."""
        promoted = self.binding.promoted
        unit = promoted.unit(uri, seq_no)
        extra = [] if unit is None else \
            [name for name in unit.columns if name not in columns]
        served = promoted.fetch(uri, seq_no, extra, info) if extra else None
        return columns if served is None else {**served[0], **columns}

    def _rebuild_index_from_metadata(self) -> None:
        """Reconstruct the in-memory record index, and the ledger of
        harvested versions, from the R and F tables."""
        records = self.db.catalog.table((SCHEMA, "records"))
        per_file = RecordColumns.grouped(
            records.column("file_location"),
            **{field: records.column(name).values
               for field, name in (("seq_no", "seq_no"),
                                   ("start_time_us", "start_time"),
                                   ("end_time_us", "end_time"),
                                   ("frequency", "frequency"),
                                   ("sample_count", "sample_count"),
                                   ("timing_quality", "timing_quality"))})
        files = self.db.catalog.table((SCHEMA, "files"))
        for uri, size, mtime_ns in zip(
                files.column("file_location").to_pylist(),
                files.column("file_size").to_pylist(),
                files.column("mtime_ns").to_pylist()):
            info = FileInfo(uri, size, mtime_ns)
            self.index.replace_file(info, per_file.get(info.uri, NO_RECORDS))

    def initial_load(self) -> ETLReport:
        """The paper's instant-on bootstrap: load metadata, bind D lazily."""
        started = time.perf_counter()
        self.repo.reset_counters()
        harvest = harvest_repository(self.repo, self.adapter)
        self.load_metadata(harvest)
        self.index.load(harvest)
        self.binding = LazyDataBinding(self.repo, self.adapter, self.index,
                                       self.cache,
                                       metadata_refresh=self.refresh_file_metadata)
        self.db.register_lazy_table(self.data_table, self.binding)
        return ETLReport(
            strategy="lazy",
            seconds=time.perf_counter() - started,
            files_listed=len(harvest.files),
            files_opened=len(harvest.files),
            records_loaded=len(harvest.records),
            samples_loaded=0,
            bytes_read=harvest.bytes_read,
        )

    def load_metadata(self, harvest: HarvestResult) -> None:
        """Bulk insert the harvested F and R rows, keys enforced."""
        files, records = harvest.files, harvest.records
        if files:
            self.db.bulk_insert(
                (SCHEMA, "files"),
                _columnar([self.adapter.file_row(meta) for meta in files]),
                enforce_keys=True,
            )
        if len(records):
            self.db.bulk_insert(
                (SCHEMA, "records"), self.adapter.record_table(records),
                enforce_keys=True,
            )

    # -- single-file metadata maintenance ---------------------------------------

    def harvest_single(self, info: FileInfo
                       ) -> tuple[FileMeta, RecordColumns]:
        """Harvest one file at version ``info``: its F row and R rows.

        Changes no state, so it needs no lock.  Shared by the query-time
        staleness hook and the explicit metadata sync.
        """
        return self.adapter.harvest_file(self.repo, info)

    def metadata_rows(self, meta: FileMeta, records: RecordColumns
                      ) -> dict[str, dict]:
        """One file's F and R rows, by table name."""
        return {"files": _columnar([self.adapter.file_row(meta)]),
                "records": self.adapter.record_table(records)}

    def refresh_file_metadata(self, info: FileInfo) -> None:
        """Re-harvest one changed file at version ``info`` and swap its
        record index entry and F/R rows in (:func:`install`).  Harvesting
        comes first: an unreadable (torn) file raises with the old
        metadata, and the ledger, untouched.  Callers hold the file's
        stripe lock and the refresh lock."""
        meta, records = self.harvest_single(info)
        install(self, info.uri, (info, records),
                self.metadata_rows(meta, records))


def _columnar(rows: list[dict[str, object]]) -> dict[str, list]:
    """Pivot row dicts into column lists."""
    if not rows:
        return {}
    return {key: [row[key] for row in rows] for key in rows[0]}

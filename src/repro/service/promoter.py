"""Adaptive lazy→eager promotion: materialize what the workload proves hot.

The paper's crossover (E7) is a fork the operator had to take up front:
lazy wins the first query, eager wins repeated scans.  The promoter
removes the fork.  The :class:`~repro.etl.heat.AccessHeatTracker` watches
which extraction units queries actually touch; this module's
:class:`Promoter` periodically materializes the hottest units into
immutable :class:`~repro.storage.promoted.PromotedStore` segments — so
subsequent queries read transformed columns straight off disk pages
(buffer-pool cached, like a :class:`~repro.db.plan.physical.PDiskScan`)
instead of re-running extraction — and demotes the coldest segments when
the disk budget is exceeded.  Cold-start behaviour is untouched: nothing
is promoted until the workload demonstrates heat.

Two drivers share the same cycle:

* :class:`BackgroundPromoter` — a daemon thread owned by
  :class:`~repro.service.service.WarehouseService` (``promote=True``),
  promoting continuously under live traffic;
* :meth:`SeismicWarehouse.promote() <repro.seismology.warehouse.
  SeismicWarehouse.promote>` — one synchronous cycle, for single-process
  use.

Promotion data comes from the extraction cache when the unit is still
resident, otherwise the promoter *extracts in the background* — paying
the extraction once, off the query path, which is the whole point.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import (
    ETLError,
    ExtractionError,
    MSeedError,
    RepositoryError,
    StorageError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.etl.heat import AccessHeatTracker
    from repro.etl.lazy import LazyDataBinding
    from repro.storage.promoted import PromotedStore

logger = logging.getLogger("repro.service.promoter")


@dataclass
class PromoterConfig:
    """Knobs for one promoter (service config mirrors these)."""

    budget_bytes: int = 256 * 1024 * 1024  # promoted segments on disk
    min_score: float = 2.0    # decayed heat a unit needs to qualify
    max_units_per_cycle: int = 512
    interval_s: float = 1.0   # background cycle period

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise ETLError("promotion budget_bytes must be positive")
        if self.max_units_per_cycle <= 0:
            raise ETLError("max_units_per_cycle must be positive")
        if self.interval_s <= 0:
            raise ETLError("promotion interval_s must be positive")


@dataclass
class PromotionReport:
    """What one promotion cycle did."""

    candidates: int = 0        # hot units considered this cycle
    promoted_units: int = 0
    promoted_bytes: int = 0    # raw payload bytes written
    from_cache_units: int = 0  # promoted straight from the extraction cache
    extracted_units: int = 0   # promoted via a background extraction
    demoted_units: int = 0
    demoted_segments: int = 0
    skipped_files: int = 0     # stale/vanished files left to the query path
    seconds: float = 0.0
    live_units: int = 0        # promoted-store size after the cycle
    disk_bytes: int = 0        # promoted-store footprint after the cycle

    def merge(self, other: "PromotionReport") -> None:
        self.candidates += other.candidates
        self.promoted_units += other.promoted_units
        self.promoted_bytes += other.promoted_bytes
        self.from_cache_units += other.from_cache_units
        self.extracted_units += other.extracted_units
        self.demoted_units += other.demoted_units
        self.demoted_segments += other.demoted_segments
        self.skipped_files += other.skipped_files
        self.seconds += other.seconds
        self.live_units = other.live_units
        self.disk_bytes = other.disk_bytes


class Promoter:
    """One promotion engine over a lazy binding + promoted store."""

    def __init__(self, binding: "LazyDataBinding",
                 heat: "AccessHeatTracker",
                 promoted: "PromotedStore",
                 config: Optional[PromoterConfig] = None) -> None:
        if promoted is None:
            raise ETLError("promotion requires attached storage "
                           "(SeismicWarehouse(storage_path=...))")
        self.binding = binding
        self.heat = heat
        self.promoted = promoted
        self.config = config or PromoterConfig()
        self.total = PromotionReport()

    # -- one cycle ---------------------------------------------------------------

    def run_cycle(self, *, budget_bytes: Optional[int] = None
                  ) -> PromotionReport:
        """Promote the hottest unpromoted units, then demote to budget."""
        started = time.perf_counter()
        budget = self.config.budget_bytes if budget_bytes is None \
            else budget_bytes
        report = PromotionReport()
        with self.promoted.mutate_lock:
            self._gc_empty_segments(report)
            fresh_segment = self._promote_hot(report, budget)
            self._demote_to_budget(budget, fresh_segment, report)
            report.live_units = len(self.promoted)
            report.disk_bytes = self.promoted.disk_bytes()
        report.seconds = time.perf_counter() - started
        self.total.merge(report)
        return report

    # -- internals ----------------------------------------------------------------

    def _promote_hot(self, report: PromotionReport,
                     budget: int) -> Optional[str]:
        # One decayed snapshot (hottest-first) drives both the selection
        # and the already-covered exclusion.  A unit whose promoted copy
        # covers every column the workload touches is skipped; one whose
        # demand *widened* (new columns in its heat entry) is re-promoted
        # with the union set, otherwise it would miss the promoted path
        # forever.  Selection is budget-aware via the tracker's payload
        # estimates: picking more than the budget could retain would
        # write a segment only for demotion to delete it — an endless
        # write/delete thrash when the hot set outgrows the budget.
        key_columns = set(self.binding.key_columns)
        per_file: dict[str, dict[int, set]] = {}
        picked = 0
        estimated_bytes = 0
        for uri, seq_no, score, unit in self.heat.snapshot():
            if score < self.config.min_score:
                break  # snapshot is sorted: everything after is colder
            wanted = set(unit.columns) - key_columns
            if not wanted:
                continue
            existing = self.promoted.unit(uri, seq_no)
            if existing is not None and wanted <= set(existing.columns):
                continue
            if unit.nbytes > budget:
                continue  # could never be retained under this budget
            if picked and estimated_bytes + unit.nbytes > budget:
                break  # budget's worth of hot units this cycle
            estimated_bytes += unit.nbytes
            per_file.setdefault(uri, {})[seq_no] = wanted
            picked += 1
            if picked >= self.config.max_units_per_cycle:
                break
        report.candidates = picked
        if not picked:
            return None

        entries: list = []
        for uri in sorted(per_file):
            entries.extend(self._gather_file(uri, per_file[uri], report))
        if not entries:
            return None
        segment = self.promoted.promote_batch(entries)
        report.promoted_units += len(entries)
        report.promoted_bytes += sum(
            arr.nbytes for _u, _s, _m, columns in entries
            for arr in columns.values()
        )
        return segment

    def _gather_file(self, uri: str, wanted: dict[int, set],
                     report: PromotionReport) -> list:
        """Collect ``(uri, seq, info, columns)`` for one file's units.

        The cache stripe lock covers only the observe + cache-read
        steps — holding it across a background extraction would stall
        concurrent queries on the very component meant to take work
        *off* the query path.  Extraction runs outside the lock
        (coalesced with any concurrent query needing the same records),
        and the file's version is re-checked afterwards: if it moved
        mid-gather the whole file is skipped, so a promoted unit can
        never pair new content with an old version or vice versa.  A
        file observed stale here gets the binding's full reaction like
        anywhere else, and is then *skipped* — ``wanted`` names records
        of the old layout; promotion waits for the next cycle.
        """
        binding = self.binding
        union_cols = sorted(set().union(*wanted.values()))
        entries: list = []
        missing: list[int] = []
        try:
            with binding.cache.file_lock(uri):
                trace: list[dict] = []
                info = binding.observe(uri, trace)
                if trace:  # the rewrite was first seen (and handled) here
                    report.skipped_files += 1
                    return []
                live = set(binding.index.seq_nos(uri).tolist())
                for seq in sorted(wanted):
                    if seq not in live:
                        continue
                    cached = binding.cache.get(uri, seq, union_cols)
                    if cached is None:
                        missing.append(seq)
                    else:
                        entries.append((uri, seq, info, cached))
            from_cache = len(entries)
            if missing:
                pieces = binding._extract_missing(
                    uri, missing, union_cols, info, trace=[])
                if not binding.is_current(info):
                    # The file was rewritten while we extracted: nothing
                    # gathered for it is trustworthy this cycle.
                    report.skipped_files += 1
                    return []
                entries.extend((uri, seq, info, columns)
                               for _uri, seq, columns, _rows in pieces)
        except (OSError, RepositoryError, ExtractionError, MSeedError,
                StorageError):
            # Vanished (FileMissingError is a RepositoryError) or
            # concurrently rewritten file: the query path's staleness
            # handling is the authority; drop our stale heat.
            self.heat.forget_file(uri)
            report.skipped_files += 1
            return []
        report.from_cache_units += from_cache
        report.extracted_units += len(entries) - from_cache
        return entries

    def _gc_empty_segments(self, report: PromotionReport) -> None:
        empties = self.promoted.empty_segments()
        for segment in empties:
            self.promoted.drop_segment(segment, commit=False)
            report.demoted_segments += 1
        if empties:
            self.promoted.store.commit()

    def _demote_to_budget(self, budget: int, fresh_segment: Optional[str],
                          report: PromotionReport) -> None:
        """Drop the coldest segments until the footprint fits the budget.

        The segment just written this cycle is demoted last — demoting
        what we just promoted would thrash.  Victims are dropped in one
        batch with a single manifest commit (and one orphan sweep), not
        one commit per segment.
        """
        sizes = self.promoted.segment_sizes()
        total = sum(sizes.values())
        if total <= budget:
            return
        segments = self.promoted.segments()
        now = self.heat.clock()

        def segment_heat(segment: str) -> float:
            keys = segments.get(segment, [])
            if not keys:
                return -1.0
            return max(self.heat.score_of(uri, seq, now)
                       for uri, seq in keys)

        # Coldest first; the fresh segment sorts after everything else.
        victims = sorted(sizes, key=lambda seg: (seg == fresh_segment,
                                                 segment_heat(seg)))
        dropped = False
        for segment in victims:
            if total <= budget:
                break
            total -= sizes[segment]
            report.demoted_units += self.promoted.drop_segment(
                segment, commit=False)
            report.demoted_segments += 1
            dropped = True
        if dropped:
            self.promoted.store.commit()


class BackgroundPromoter:
    """Daemon thread running promotion cycles at a fixed interval.

    Owned by :class:`~repro.service.service.WarehouseService`; failures
    in one cycle are logged and do not kill the thread (promotion is an
    optimisation — the lazy path stays correct without it).
    """

    def __init__(self, promoter: Promoter) -> None:
        self.promoter = promoter
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-promoter", daemon=True)
        self.cycles = 0
        self.errors = 0
        self.last_error: Optional[BaseException] = None
        self._lock = threading.Lock()

    def start(self) -> None:
        self._thread.start()

    def kick(self) -> None:
        """Request an immediate cycle (tests; load spikes)."""
        self._wake.set()

    def stop(self) -> None:
        """Stop the thread after at most one more cycle."""
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join()

    @property
    def total(self) -> PromotionReport:
        return self.promoter.total

    def _loop(self) -> None:
        interval = self.promoter.config.interval_s
        while not self._stop.is_set():
            self._wake.wait(timeout=interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                self.promoter.run_cycle()
                with self._lock:
                    self.cycles += 1
            except Exception as exc:
                with self._lock:
                    self.errors += 1
                    self.last_error = exc
                logger.exception("promotion cycle failed (continuing)")

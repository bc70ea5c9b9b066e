"""Access-heat tracking: the adaptive middle path between lazy and eager.

The paper's crossover says lazy ETL wins the first query while eager ETL
wins repeated scans.  "On-Demand Big Data Integration" (PAPERS.md) argues
the operator should not have to choose: track what is *actually* queried
and materialize only that.  This module
is the tracking half — :class:`AccessHeatTracker` records, per extraction
unit ``(file uri, record seq_no)``, how often queries touched it and
through which data columns, with exponential decay so yesterday's hot
channel cools off on its own.

Units are the extraction grain the rest of the system already uses: one
mSEED record, the row of R that names it.  The tracker is fed from
:meth:`~repro.etl.lazy.LazyDataBinding.fetch` — every cache hit, fresh
extraction and promoted-segment read lands here — and read by the
:class:`~repro.service.promoter.Promoter`, which materializes the hottest
units into :class:`~repro.storage.store.TableStore` segments and demotes
the coldest when over budget.

Thread safety: one tracker is shared by every worker of a
:class:`~repro.service.service.WarehouseService` plus the background
promoter, so all public methods take the internal lock.  Touches are
O(records per file per query) dict updates — noise next to extraction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

HALF_LIFE_S = 300.0
"""Default decay half-life: a unit untouched for 5 minutes has half the
heat it had, untouched for an hour it is stone cold."""

KINDS = ("extract", "cache_hit", "eager_hit")
"""How a touched unit was served: fresh extraction, extraction-cache
hit, or a read from a promoted (eagerly materialized) segment."""

PRUNE_EVERY_TOUCHES = 2048
"""Cold units are swept every this many touches, so a long-running
service tracks the *active* set, not every unit ever touched."""

PRUNE_BELOW_SCORE = 1 / 64
"""Decayed score under which a unit is considered stone cold: six
half-lives without a touch (30 min at the default half-life)."""

EXPORT_MAX_UNITS = 4096
"""Checkpoint snapshots keep only the hottest units — heat state rides
inside the store manifest, which every commit re-serialises."""


@dataclass
class HeatUnit:
    """Mutable per-(uri, seq_no) heat state."""

    score: float = 0.0
    last_touch: float = 0.0       # wall-clock (persists across processes)
    columns: set = field(default_factory=set)
    nbytes: int = 0               # last observed extracted payload size
    extractions: int = 0
    cache_hits: int = 0
    eager_hits: int = 0

    def decayed(self, now: float, half_life_s: float) -> float:
        """The score as of ``now`` (stored score is as of last_touch)."""
        if self.score == 0.0:
            return 0.0
        age = max(now - self.last_touch, 0.0)
        return self.score * 0.5 ** (age / half_life_s)


@dataclass
class HeatStats:
    touches: int = 0
    forgotten_files: int = 0
    restored_units: int = 0
    pruned_units: int = 0


class AccessHeatTracker:
    """Per-unit access frequency with exponential decay.

    ``clock`` is injectable for deterministic tests; it must return
    seconds as a float and be comparable across process restarts (the
    default ``time.time`` is — tracker state survives
    ``checkpoint()`` → ``warm_start()``).
    """

    def __init__(self, *, half_life_s: float = HALF_LIFE_S,
                 clock: Callable[[], float] = time.time) -> None:
        if half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        self.half_life_s = half_life_s
        self.clock = clock
        self._units: dict[tuple[str, int], HeatUnit] = {}
        self._lock = threading.Lock()
        self._touches_since_prune = 0
        self.stats = HeatStats()

    # -- recording ---------------------------------------------------------------

    def touch(self, uri: str, seq_no: int, columns: Iterable[str],
              *, kind: str = "cache_hit", nbytes: int = 0,
              weight: float = 1.0) -> None:
        """Record one access to one unit (see :meth:`touch_units`)."""
        self.touch_units(uri, [seq_no], columns, kind=kind,
                         nbytes=nbytes, weight=weight)

    def touch_units(self, uri: str, seq_nos: Iterable[int],
                    columns: Iterable[str], *, kind: str = "cache_hit",
                    nbytes: int = 0, weight: float = 1.0) -> None:
        """Record one query's access to several units of one file.

        ``nbytes`` is the total payload across the units; it is split
        evenly as a per-unit size estimate (exact sizes do not matter —
        the promoter only needs the order of magnitude for budgeting).
        """
        if kind not in KINDS:
            raise ValueError(f"unknown access kind {kind!r}")
        seq_nos = list(seq_nos)
        if not seq_nos:
            return
        per_unit_bytes = nbytes // len(seq_nos)
        cols = set(columns)
        now = self.clock()
        with self._lock:
            for seq_no in seq_nos:
                unit = self._units.get((uri, seq_no))
                if unit is None:
                    unit = self._units[(uri, seq_no)] = HeatUnit()
                unit.score = unit.decayed(now, self.half_life_s) + weight
                unit.last_touch = now
                unit.columns |= cols
                if per_unit_bytes:
                    unit.nbytes = per_unit_bytes
                if kind == "extract":
                    unit.extractions += 1
                elif kind == "cache_hit":
                    unit.cache_hits += 1
                else:
                    unit.eager_hits += 1
            self.stats.touches += len(seq_nos)
            self._touches_since_prune += len(seq_nos)
            if self._touches_since_prune >= PRUNE_EVERY_TOUCHES:
                self._touches_since_prune = 0
                self._prune_locked(now, PRUNE_BELOW_SCORE)

    def prune(self, min_score: float = PRUNE_BELOW_SCORE) -> int:
        """Drop units whose decayed score fell below ``min_score``.

        Runs automatically every :data:`PRUNE_EVERY_TOUCHES` touches, so
        the tracked population follows the active working set instead of
        growing without bound over a long-running service.
        """
        with self._lock:
            return self._prune_locked(self.clock(), min_score)

    def _prune_locked(self, now: float, min_score: float) -> int:
        doomed = [
            key for key, unit in self._units.items()
            if unit.decayed(now, self.half_life_s) < min_score
        ]
        for key in doomed:
            del self._units[key]
        self.stats.pruned_units += len(doomed)
        return len(doomed)

    def forget_file(self, uri: str) -> int:
        """Drop every unit of a file (its record layout changed: seq_nos
        may mean different byte ranges now)."""
        with self._lock:
            doomed = [key for key in self._units if key[0] == uri]
            for key in doomed:
                del self._units[key]
            if doomed:
                self.stats.forgotten_files += 1
            return len(doomed)

    # -- reading -----------------------------------------------------------------

    def score_of(self, uri: str, seq_no: int,
                 now: Optional[float] = None) -> float:
        now = self.clock() if now is None else now
        with self._lock:
            unit = self._units.get((uri, seq_no))
            return 0.0 if unit is None else unit.decayed(now, self.half_life_s)

    def snapshot(self, now: Optional[float] = None
                 ) -> list[tuple[str, int, float, HeatUnit]]:
        """``(uri, seq_no, decayed_score, unit)`` hottest-first."""
        now = self.clock() if now is None else now
        with self._lock:
            items = [
                (uri, seq_no, unit.decayed(now, self.half_life_s), unit)
                for (uri, seq_no), unit in self._units.items()
            ]
        items.sort(key=lambda item: (-item[2], item[0], item[1]))
        return items

    def hottest(self, limit: int, *, min_score: float = 0.0,
                exclude: Optional[set] = None
                ) -> list[tuple[str, int, float, HeatUnit]]:
        """The ``limit`` hottest units at or above ``min_score``."""
        exclude = exclude or set()
        picked = []
        for uri, seq_no, score, unit in self.snapshot():
            if score < min_score:
                break  # snapshot is sorted: everything after is colder
            if (uri, seq_no) in exclude:
                continue
            picked.append((uri, seq_no, score, unit))
            if len(picked) >= limit:
                break
        return picked

    def __len__(self) -> int:
        with self._lock:
            return len(self._units)

    # -- persistence (checkpoint / warm start) ------------------------------------

    def export_state(self, max_units: int = EXPORT_MAX_UNITS) -> dict:
        """JSON-safe snapshot for the store manifest's ``meta`` area.

        Capped at the ``max_units`` hottest units: the snapshot lives
        inside the manifest, which every later commit re-serialises, so
        it must stay proportional to the hot set, not history.
        """
        hottest = self.snapshot()[:max_units]
        return {
            "half_life_s": self.half_life_s,
            "units": [
                [uri, seq_no, unit.score, unit.last_touch,
                 sorted(unit.columns), unit.nbytes, unit.extractions,
                 unit.cache_hits, unit.eager_hits]
                for uri, seq_no, _score, unit in hottest
            ],
        }

    def import_state(self, state: Optional[dict]) -> int:
        """Merge a prior :meth:`export_state` snapshot (warm start).

        Existing units keep whichever side is hotter — a warm start into
        a tracker that already saw traffic must not erase live heat.
        """
        if not state:
            return 0
        now = self.clock()
        restored = 0
        with self._lock:
            for entry in state.get("units", ()):
                (uri, seq_no, score, last_touch, columns, nbytes,
                 extractions, cache_hits, eager_hits) = entry
                incoming = HeatUnit(
                    score=float(score), last_touch=float(last_touch),
                    columns=set(columns), nbytes=int(nbytes),
                    extractions=int(extractions), cache_hits=int(cache_hits),
                    eager_hits=int(eager_hits),
                )
                key = (str(uri), int(seq_no))
                existing = self._units.get(key)
                if existing is None or (
                    incoming.decayed(now, self.half_life_s)
                    > existing.decayed(now, self.half_life_s)
                ):
                    self._units[key] = incoming
                    restored += 1
            self.stats.restored_units += restored
        return restored

    def render(self, max_rows: int = 12) -> str:
        lines = [f"heat tracker: {len(self)} units, "
                 f"half-life {self.half_life_s:.0f}s"]
        for uri, seq_no, score, unit in self.snapshot()[:max_rows]:
            lines.append(
                f"  {uri} seq={seq_no} score={score:.2f} "
                f"extract={unit.extractions} cache={unit.cache_hits} "
                f"eager={unit.eager_hits}"
            )
        return "\n".join(lines)

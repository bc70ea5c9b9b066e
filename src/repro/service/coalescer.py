"""Single-flight extraction coalescing.

When N concurrent sessions need the same (file, record) ranges, exactly
one of them — the *leader* — runs the extraction; the others become
*waiters* and share the leader's result the moment it is published.  The
work is deduplicated even when the extraction cache cannot retain the
records (tiny budget, eviction storm): results travel through the flight
object itself, not the cache.

Claims are per record: a flight key is ``(uri, seq_no, column
signature, file version)``, so two queries that overlap on some records
of a file coalesce on the overlap and extract their private remainders
independently.  The version — the ``FileInfo`` (size + mtime) the
session's one observation of the file returned — is the file
*generation*: a session that has observed a rewrite claims under the new
version and can never be handed rows from a flight that is still
extracting the old content.  One
:meth:`ExtractionCoalescer.claim` call groups all records it wins the
lead for into a single :class:`ExtractionFlight`, so the leader still
extracts its records in one adapter call per file.  What a flight
carries is the file's unit after the harvest: the leader publishes its
one extracted run (:class:`~repro.etl.framework.ExtractedRecords`), and
a waiter takes its records out of it with one ``np.take``.

The flight table is lock-striped by URI hash — claims for different
files never contend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.etl.framework import ExtractedRecords, held_positions
from repro.mseed.repository import FileInfo

FlightKey = tuple[str, int, tuple[str, ...], Optional[FileInfo]]

STRIPE_COUNT = 16


class ExtractionFlight:
    """One in-flight extraction: a leader's promise of one file's run."""

    __slots__ = ("uri", "done", "run", "error")

    def __init__(self, uri: str) -> None:
        self.uri = uri
        self.done = threading.Event()
        self.run: Optional[ExtractedRecords] = None
        self.error: Optional[BaseException] = None


@dataclass
class CoalescerStats:
    """Counters the service reports (``svc.stats().coalescer``)."""

    flights_led: int = 0        # claim batches that extracted
    records_led: int = 0        # records extracted by leaders
    records_waited: int = 0     # records obtained by waiting on a flight
    wait_timeouts: int = 0      # waits that gave up and self-extracted
    flight_errors: int = 0      # flights whose leader failed

    def snapshot(self) -> dict[str, int]:
        return {
            "flights_led": self.flights_led,
            "records_led": self.records_led,
            "records_waited": self.records_waited,
            "wait_timeouts": self.wait_timeouts,
            "flight_errors": self.flight_errors,
        }


@dataclass
class ClaimOutcome:
    """What one claim call won and what it must wait for."""

    led_seqs: list[int] = field(default_factory=list)
    flight: Optional[ExtractionFlight] = None  # set iff led_seqs non-empty
    waits: dict[ExtractionFlight, list[int]] = field(default_factory=dict)


class ExtractionCoalescer:
    """Single-flight table for record extractions, striped by URI."""

    def __init__(self) -> None:
        # One (lock, flight table) pair per stripe: operations on one URI
        # only ever touch its own stripe's table, so stripes are fully
        # independent.
        self._stripes = [threading.Lock() for _ in range(STRIPE_COUNT)]
        self._tables: list[dict[FlightKey, ExtractionFlight]] = [
            {} for _ in range(STRIPE_COUNT)
        ]
        self.stats = CoalescerStats()
        self._stats_lock = threading.Lock()

    def _stripe_index(self, uri: str) -> int:
        return hash(uri) % STRIPE_COUNT

    # -- claiming ----------------------------------------------------------------

    def claim(self, uri: str, seq_nos: list[int], columns: list[str],
              info: Optional[FileInfo] = None) -> ClaimOutcome:
        """Partition ``seq_nos`` into records this caller leads vs waits on.

        Atomic per URI stripe: every record is either registered under a
        fresh flight owned by this caller (the caller MUST later
        :meth:`publish` that flight) or attached to another session's
        flight already in progress.  ``info`` is the file generation
        the caller observed — claims against different generations never
        coalesce.
        """
        colsig = tuple(sorted(columns))
        outcome = ClaimOutcome()
        stripe = self._stripe_index(uri)
        with self._stripes[stripe]:
            table = self._tables[stripe]
            for seq in seq_nos:
                key = (uri, seq, colsig, info)
                flight = table.get(key)
                if flight is None:
                    if outcome.flight is None:
                        outcome.flight = ExtractionFlight(uri)
                    table[key] = outcome.flight
                    outcome.led_seqs.append(seq)
                else:
                    outcome.waits.setdefault(flight, []).append(seq)
        return outcome

    def publish(self, uri: str, flight: ExtractionFlight,
                run: Optional[ExtractedRecords],
                error: Optional[BaseException] = None) -> None:
        """Resolve a led flight: hand its run (or the failure) to waiters
        and retire every key the flight holds so later queries start
        fresh.  A leader MUST call this exactly once per led flight, even
        when extraction found nothing (``run`` is ``None``) — waiters for
        records the flight did not produce fall back to self-extraction.
        """
        flight.run = run
        flight.error = error
        stripe = self._stripe_index(uri)
        with self._stripes[stripe]:
            table = self._tables[stripe]
            doomed = [key for key, f in table.items() if f is flight]
            for key in doomed:
                del table[key]
        with self._stats_lock:
            if error is None:
                self.stats.flights_led += 1
                self.stats.records_led += 0 if run is None else len(run.seq_nos)
            else:
                self.stats.flight_errors += 1
        flight.done.set()

    # -- waiting -----------------------------------------------------------------

    def wait(self, flight: ExtractionFlight, seq_nos: list[int],
             timeout: Optional[float]) -> Optional[ExtractedRecords]:
        """Block until the flight resolves; return the requested records
        as one run.

        Returns ``None`` when the flight failed, timed out, or did not
        produce every requested record — callers fall back to extracting
        those records themselves (correctness over sharing).
        """
        if not flight.done.wait(timeout):
            with self._stats_lock:
                self.stats.wait_timeouts += 1
            return None
        if flight.error is not None or flight.run is None:
            return None
        run = flight.run
        held, positions = held_positions(
            run.seq_nos, np.sort(np.asarray(seq_nos, dtype=np.int64)))
        if not held.all():
            return None
        got = run.take(positions)
        with self._stats_lock:
            self.stats.records_waited += len(got.seq_nos)
        return got

    # -- introspection -----------------------------------------------------------

    def in_flight(self) -> int:
        """Advisory count of registered flight keys (racy read is fine)."""
        return sum(len(table) for table in self._tables)

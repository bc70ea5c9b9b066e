"""Ground truth for every query the benchmark issues, computed with numpy
from the synthesizer's own sample arrays (see corpus.py) — never from
anything the engine read or decoded.

COUNT/MIN/MAX and retrieved samples must match exactly; AVG within
``REL_AVG``; STDDEV within ``REL_STDDEV``.  A wrong, missing or refused
answer is a failed op.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from corpus import SAMPLE_STEP_US, Entry

REL_AVG = 1e-9
REL_STDDEV = 1e-6


class Oracle:
    """Per-stream sample arrays plus the answers derived from them."""

    def __init__(self, entries: Sequence[Entry], truth: np.ndarray) -> None:
        self.entries = list(entries)
        self.rows = {e.index: np.asarray(truth[e.index], dtype=np.int64)
                     for e in self.entries}
        self.by_stream: dict[tuple[str, str], list[Entry]] = {}
        for entry in self.entries:
            self.by_stream.setdefault(
                (entry.station, entry.channel), []).append(entry)
        for files in self.by_stream.values():
            files.sort(key=lambda e: e.start_us)

    # -- state ---------------------------------------------------------------

    def replace_file(self, entry: Entry, samples: np.ndarray) -> None:
        """The rewrite workload swapped ``entry``'s bytes."""
        self.rows[entry.index] = np.asarray(samples, dtype=np.int64)

    # -- selections ----------------------------------------------------------

    def streams(self) -> list[tuple[str, str]]:
        return sorted(self.by_stream)

    def stations(self) -> list[str]:
        return sorted({e.station for e in self.entries})

    def span(self, station: str, channel: str) -> tuple[int, int]:
        files = self.by_stream[(station, channel)]
        last = files[-1]
        return files[0].start_us, \
            last.start_us + last.n_samples * SAMPLE_STEP_US

    def window(self, station: str, channel: str, lo_us: int, hi_us: int,
               *, closed_lo: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) with ``lo < t < hi`` (``lo <= t`` if closed_lo)."""
        times, values = [], []
        for entry in self.by_stream[(station, channel)]:
            # First and one-past-last sample index inside the window.
            first = -((entry.start_us - lo_us) // SAMPLE_STEP_US)
            if not closed_lo and entry.start_us + first * SAMPLE_STEP_US \
                    == lo_us:
                first += 1
            last = -((entry.start_us - hi_us) // SAMPLE_STEP_US)
            first, last = max(first, 0), min(last, entry.n_samples)
            if first < last:
                times.append(entry.start_us + SAMPLE_STEP_US * np.arange(
                    first, last, dtype=np.int64))
                values.append(self.rows[entry.index][first:last])
        if not values:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(times), np.concatenate(values)

    def samples(self, *, station: "str | None" = None,
                channel: "str | None" = None) -> np.ndarray:
        """Every sample of the files the metadata predicate selects."""
        picked = [self.rows[e.index] for e in self.entries
                  if (station is None or e.station == station)
                  and (channel is None or e.channel == channel)]
        return np.concatenate(picked) if picked else np.empty(0, np.int64)


def stddev_samp(values: np.ndarray) -> float:
    return float(np.std(values.astype(np.float64), ddof=1))


def values_match(got, want, rel: float) -> bool:
    if isinstance(want, float):
        if got is None or isinstance(got, (str, bytes)):
            return False
        return math.isclose(float(got), want, rel_tol=rel, abs_tol=0.0)
    return got == want


def rows_match(got: "Iterable[tuple] | None", want: Sequence[tuple], *,
               rel: float = REL_AVG, ordered: bool = True) -> bool:
    """Whether a fetched row list equals the expected one.

    Floats in ``want`` compare by relative tolerance, everything else
    exactly.  ``ordered=False`` (GROUP BY without ORDER BY) sorts both
    sides by the non-float columns first.
    """
    if got is None:
        return False
    got, want = list(got), list(want)
    if len(got) != len(want):
        return False
    if got == want:
        # Exactly equal, at C speed (a retrieval is 24 000 rows).
        return True
    got = [tuple(_plain(v) for v in row) for row in got]
    if not ordered and want:
        exact = [i for i, v in enumerate(want[0]) if not isinstance(v, float)]

        def key(row):
            return tuple(row[i] for i in exact if i < len(row))
        got, want = sorted(got, key=key), sorted(want, key=key)
    return all(
        len(g) == len(w) and all(values_match(a, b, rel)
                                 for a, b in zip(g, w))
        for g, w in zip(got, want))


def _plain(value):
    """numpy scalars from the engine compare as Python numbers."""
    return value.item() if isinstance(value, np.generic) else value
